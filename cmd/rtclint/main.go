// Command rtclint runs the repo-specific static-analysis suite
// (internal/lint) over the module and reports findings as
// file:line:col: [analyzer] message.
//
// Usage:
//
//	rtclint [-C dir] [-list] [-json] [-fix] [-run a,b] [packages]
//
// The only supported package pattern is "./..." (the default): the suite
// always analyzes the whole module, because the invariants it enforces are
// whole-tree properties. -json emits the findings as a JSON array for CI
// tooling; -fix applies every suggested fix (sorted-keys rewrites for
// maporder, stale //lint:ignore deletion), then re-analyzes and reports
// what remains. -run restricts the suite to a comma-separated analyzer
// subset (stale-ignore reporting is disabled under a partial suite).
// A finding is fixed, or suppressed at its site with
// //lint:ignore <analyzer> <reason>. Output is byte-deterministic:
// analyzers are listed sorted by name and findings sorted by (file,
// line, col, analyzer).
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"rtcadapt/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &errWriter{w: stdoutW}
	stderr := &errWriter{w: stderrW}

	fs := flag.NewFlagSet("rtclint", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	dir := fs.String("C", ".", "module root to analyze")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	fix := fs.Bool("fix", false, "apply suggested fixes, then report remaining findings")
	runOnly := fs.String("run", "", "comma-separated analyzer subset to run (default: full suite)")
	fs.Usage = func() {
		stderr.printf("usage: rtclint [-C dir] [-list] [-json] [-fix] [-run a,b] [./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		analyzers := append([]*lint.Analyzer(nil), lint.Analyzers()...)
		sort.Slice(analyzers, func(i, j int) bool { return analyzers[i].Name < analyzers[j].Name })
		for _, a := range analyzers {
			stdout.printf("%-16s %s\n", a.Name, a.Doc)
		}
		return exitStatus(0, stdout, stderrW)
	}
	for _, pat := range fs.Args() {
		if pat != "./..." {
			stderr.printf("rtclint: unsupported package pattern %q (only ./...)\n", pat)
			return 2
		}
	}

	analyzers := lint.Analyzers()
	if *runOnly != "" {
		names := strings.Split(*runOnly, ",")
		if slices.Contains(names, "") {
			stderr.printf("rtclint: -run %q has an empty analyzer name\n", *runOnly)
			return 2
		}
		var unknown []string
		analyzers, unknown = lint.Select(names)
		if len(unknown) > 0 {
			stderr.printf("rtclint: -run names unknown analyzer(s): %s\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	root, modPath, err := findModule(*dir)
	if err != nil {
		stderr.printf("rtclint: %v\n", err)
		return 2
	}
	diags, sources, fset, err := analyze(root, modPath, analyzers, *runOnly == "")
	if err != nil {
		stderr.printf("rtclint: %v\n", err)
		return 2
	}

	if *fix {
		fixed, err := lint.ApplyFixes(fset, diags, sources)
		if err != nil {
			stderr.printf("rtclint: %v\n", err)
			return 2
		}
		names := make([]string, 0, len(fixed))
		for name := range fixed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := os.WriteFile(name, fixed[name], 0o644); err != nil {
				stderr.printf("rtclint: %v\n", err)
				return 2
			}
			stderr.printf("rtclint: fixed %s\n", relTo(root, name))
		}
		if len(names) > 0 {
			// Re-analyze so the report reflects the rewritten tree.
			diags, _, fset, err = analyze(root, modPath, analyzers, *runOnly == "")
			if err != nil {
				stderr.printf("rtclint: %v (after -fix)\n", err)
				return 2
			}
		}
	}

	for i := range diags {
		diags[i].Pos.Filename = relTo(root, diags[i].Pos.Filename)
	}
	if *jsonOut {
		printJSON(stdout, diags)
	} else {
		for _, d := range diags {
			stdout.printf("%s\n", d)
		}
	}
	if len(diags) > 0 {
		stderr.printf("rtclint: %d finding(s)\n", len(diags))
		return exitStatus(1, stdout, stderrW)
	}
	return exitStatus(0, stdout, stderrW)
}

// analyze loads the module and runs the selected analyzers, returning
// sorted findings plus the sources and FileSet needed to apply fixes.
// Stale-ignore reporting is sound only under the full suite, so the
// caller states whether this run is one.
func analyze(root, modPath string, analyzers []*lint.Analyzer, fullSuite bool) ([]lint.Diagnostic, map[string][]byte, *token.FileSet, error) {
	loader := lint.NewLoader()
	pkgs, err := loader.LoadModule(root, modPath)
	if err != nil {
		return nil, nil, nil, err
	}
	sources := make(map[string][]byte)
	for _, p := range pkgs {
		for name, src := range p.Sources {
			sources[name] = src
		}
	}
	runner := &lint.Runner{Analyzers: analyzers, ReportUnusedIgnores: fullSuite}
	return runner.Run(loader.Fset, pkgs), sources, loader.Fset, nil
}

// jsonFinding is the machine-readable form of one diagnostic.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

// printJSON renders findings as a JSON array, one finding per line, in
// the same deterministic order as the text output.
func printJSON(out *errWriter, diags []lint.Diagnostic) {
	if len(diags) == 0 {
		out.printf("[]\n")
		return
	}
	out.printf("[\n")
	for i, d := range diags {
		f := jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Fixable:  d.Fix != nil,
		}
		b, err := json.Marshal(f)
		if err != nil {
			out.err = err
			return
		}
		sep := ","
		if i == len(diags)-1 {
			sep = ""
		}
		out.printf("  %s%s\n", b, sep)
	}
	out.printf("]\n")
}

// relTo rewrites name relative to root when it lies inside it.
func relTo(root, name string) string {
	rel, err := filepath.Rel(root, name)
	if err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

// errWriter tracks the first write error so the driver can fail loudly
// when its output goes to a broken pipe or full disk, without checking
// every print site.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// exitStatus folds any deferred write error into the exit code.
func exitStatus(code int, stdout *errWriter, stderrW io.Writer) int {
	if stdout.err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "rtclint: writing output: %v\n", stdout.err)
		return 2
	}
	return code
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}
