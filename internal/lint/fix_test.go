package lint

import (
	"bytes"
	"go/format"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// editFset builds a FileSet holding one synthetic file so tests can mint
// token.Pos values from byte offsets.
func editFset(src string) (*token.FileSet, *token.File) {
	fset := token.NewFileSet()
	f := fset.AddFile("a.go", -1, len(src))
	f.SetLinesForContent([]byte(src))
	return fset, f
}

// fixDiag wraps edits in a Diagnostic the way analyzers produce them.
func fixDiag(edits ...TextEdit) Diagnostic {
	return Diagnostic{Analyzer: "test", Fix: &SuggestedFix{Message: "test", Edits: edits}}
}

func TestApplyFixesReplaceAndInsert(t *testing.T) {
	src := "aaa bbb ccc\n"
	fset, f := editFset(src)
	diags := []Diagnostic{
		fixDiag(TextEdit{Pos: f.Pos(4), End: f.Pos(7), NewText: "BB"}),
		fixDiag(TextEdit{Pos: f.Pos(0), NewText: "x"}),
	}
	out, err := ApplyFixes(fset, diags, map[string][]byte{"a.go": []byte(src)})
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if got, want := string(out["a.go"]), "xaaa BB ccc\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestApplyFixesDedupesIdenticalEdits(t *testing.T) {
	src := "package p\n"
	fset, f := editFset(src)
	ins := TextEdit{Pos: f.Pos(9), NewText: "\n\nimport \"sort\""}
	diags := []Diagnostic{fixDiag(ins), fixDiag(ins)}
	out, err := ApplyFixes(fset, diags, map[string][]byte{"a.go": []byte(src)})
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if got := string(out["a.go"]); strings.Count(got, "import \"sort\"") != 1 {
		t.Errorf("identical edits not deduplicated: %q", got)
	}
}

func TestApplyFixesRejectsOverlap(t *testing.T) {
	src := "aaaaaaaa\n"
	fset, f := editFset(src)
	diags := []Diagnostic{
		fixDiag(TextEdit{Pos: f.Pos(0), End: f.Pos(4), NewText: "x"}),
		fixDiag(TextEdit{Pos: f.Pos(2), End: f.Pos(6), NewText: "y"}),
	}
	if _, err := ApplyFixes(fset, diags, map[string][]byte{"a.go": []byte(src)}); err == nil {
		t.Error("overlapping edits were not rejected")
	}
}

func TestApplyFixesRejectsUnknownFile(t *testing.T) {
	src := "aaa\n"
	fset, f := editFset(src)
	diags := []Diagnostic{fixDiag(TextEdit{Pos: f.Pos(0), End: f.Pos(1)})}
	if _, err := ApplyFixes(fset, diags, map[string][]byte{}); err == nil {
		t.Error("fix against a file missing from sources was not rejected")
	}
}

func TestApplyFixesDropsBlankLine(t *testing.T) {
	src := "package p\n\n\t//lint:ignore x y\nfunc f() {}\n"
	fset, f := editFset(src)
	start := strings.Index(src, "//lint")
	end := strings.Index(src, "\nfunc")
	diags := []Diagnostic{fixDiag(TextEdit{Pos: f.Pos(start), End: f.Pos(end), DropBlankLine: true})}
	out, err := ApplyFixes(fset, diags, map[string][]byte{"a.go": []byte(src)})
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if got, want := string(out["a.go"]), "package p\n\nfunc f() {}\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestFixable(t *testing.T) {
	if Fixable([]Diagnostic{{Analyzer: "x"}}) {
		t.Error("Fixable() = true for a diagnostic without a fix")
	}
	if !Fixable([]Diagnostic{{Analyzer: "x"}, fixDiag(TextEdit{})}) {
		t.Error("Fixable() = false despite a suggested fix")
	}
}

// copyTree duplicates a fixture tree into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying fix corpus: %v", err)
	}
}

// TestFixRoundTrip is the -fix contract: apply every suggested fix on the
// corpus under testdata/fix/src, assert the result compiles, re-lints
// clean, is gofmt-formatted, and matches testdata/fix/golden byte for
// byte. Run with UPDATE_LINT_GOLDEN=1 to regenerate the golden tree.
func TestFixRoundTrip(t *testing.T) {
	goldenRoot := filepath.Join("testdata", "fix", "golden")
	tmp := t.TempDir()
	copyTree(t, filepath.Join("testdata", "fix", "src"), tmp)

	analyzers := []*Analyzer{MapOrder, TransitivePurity}
	load := func() ([]Diagnostic, map[string][]byte, *token.FileSet) {
		loader := NewLoader()
		pkgs, err := loader.LoadModule(tmp, "fixmod")
		if err != nil {
			t.Fatalf("loading fix corpus: %v", err)
		}
		sources := make(map[string][]byte)
		for _, p := range pkgs {
			for name, src := range p.Sources {
				sources[name] = src
			}
		}
		runner := &Runner{Analyzers: analyzers, ReportUnusedIgnores: true}
		return runner.Run(loader.Fset, pkgs), sources, loader.Fset
	}

	diags, sources, fset := load()
	if len(diags) == 0 {
		t.Fatal("fix corpus produced no findings")
	}
	for _, d := range diags {
		if d.Fix == nil {
			t.Fatalf("corpus finding has no suggested fix: %s", d)
		}
	}
	fixed, err := ApplyFixes(fset, diags, sources)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	for name, content := range fixed {
		if formatted, err := format.Source(content); err != nil {
			t.Errorf("fixed %s does not parse: %v\n%s", filepath.Base(name), err, content)
		} else if !bytes.Equal(formatted, content) {
			t.Errorf("fixed %s is not gofmt-clean:\n%s", filepath.Base(name), content)
		}
		if err := os.WriteFile(name, content, 0o644); err != nil {
			t.Fatalf("writing fixed file: %v", err)
		}
	}

	// The fixed tree must type-check and re-lint with zero findings.
	after, _, _ := load()
	for _, d := range after {
		t.Errorf("finding survived -fix: %s", d)
	}

	update := os.Getenv("UPDATE_LINT_GOLDEN") != ""
	err = filepath.Walk(tmp, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, err := filepath.Rel(tmp, path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		goldenPath := filepath.Join(goldenRoot, rel)
		if update {
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				return err
			}
			return os.WriteFile(goldenPath, got, 0o644)
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Errorf("missing golden for %s (run with UPDATE_LINT_GOLDEN=1): %v", rel, err)
			return nil
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from golden:\n--- got ---\n%s--- want ---\n%s", rel, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("comparing golden tree: %v", err)
	}
}
