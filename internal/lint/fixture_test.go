package lint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixturePrefix is the import-path root the fixture tree is loaded under.
const fixturePrefix = "fixture"

// fixtures is the fixture tree, type-checked on first use and shared by
// every test after it: analyzers only read the packages they are given.
var fixtures struct {
	once   sync.Once
	loader *Loader
	byPath map[string]*Package
	err    error
}

// loadFixtures loads testdata/src once per test binary.
func loadFixtures(t *testing.T) (*Loader, map[string]*Package) {
	t.Helper()
	fixtures.once.Do(func() {
		fixtures.loader = NewLoader()
		pkgs, err := fixtures.loader.LoadModule(filepath.Join("testdata", "src"), fixturePrefix)
		fixtures.err = err
		fixtures.byPath = make(map[string]*Package, len(pkgs))
		for _, p := range pkgs {
			fixtures.byPath[p.Path] = p
		}
	})
	if fixtures.err != nil {
		t.Fatalf("loading fixtures: %v", fixtures.err)
	}
	return fixtures.loader, fixtures.byPath
}

// loadFreshFixtures type-checks testdata/src with a loader of its own,
// for the tests that compare two independent loads. The packages come in
// the loader's order, sorted by import path.
func loadFreshFixtures(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	loader := NewLoader()
	pkgs, err := loader.LoadModule(filepath.Join("testdata", "src"), fixturePrefix)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	return loader, pkgs
}

// wantRe extracts the backquoted patterns of a `// want` comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// expectation is one `// want` pattern, matched against diagnostics on
// its line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants parses `// want` comments from the package's files.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := fset.Position(c.Pos())
					pats := wantRe.FindAllStringSubmatch(text, -1)
					if len(pats) == 0 {
						t.Fatalf("%s:%d: want comment without backquoted pattern", pos.Filename, pos.Line)
					}
					for _, m := range pats {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

// checkDiagnostics asserts the diagnostics exactly satisfy the wants.
func checkDiagnostics(t *testing.T, diags []Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

// runOn applies the given analyzers to the named fixture packages and
// compares diagnostics against the packages' want comments.
func runOn(t *testing.T, loader *Loader, byPath map[string]*Package, analyzers []*Analyzer, paths ...string) {
	t.Helper()
	var pkgs []*Package
	for _, p := range paths {
		pkg, ok := byPath[fixturePrefix+"/"+p]
		if !ok {
			t.Fatalf("fixture package %q not loaded", p)
		}
		pkgs = append(pkgs, pkg)
	}
	runner := &Runner{Analyzers: analyzers}
	diags := runner.Run(loader.Fset, pkgs)
	checkDiagnostics(t, diags, collectWants(t, loader.Fset, pkgs))
}

func TestFloatEqFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{FloatEq}, "floateqfix")
}

func TestMapOrderFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{MapOrder}, "internal/maporderfix")
}

func TestErrDropFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{ErrDrop},
		"internal/errdropfix", "cmd/errdropcmd", "scopecheck")
}

func TestImportLayerFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{ImportLayer},
		"internal/codec", "internal/session", "internal/simtime",
		"internal/stats", "internal/sfu", "internal/mystery", "cmd/lintdemo")
}

// TestTransitivePurityFixture: internal/core is an entry-point package
// whose sinks sit one package away in puritydep, so those findings cross
// a package boundary and carry a taint path; puritydep is outside
// internal/, so its unreachable sink stays silent.
func TestTransitivePurityFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{TransitivePurity}, "internal/core", "puritydep")
}

// TestNoWallClockFixture, TestSeededRandFixture and TestRawGoFixture cover
// transitivepurity's per-site walk: clockfix, randfix and experiments are
// internal packages no entry point reaches, so each wall-clock, unseeded
// randomness or raw-goroutine site is reported without a taint path.
// scopecheck is neither internal nor reachable and must stay silent.
func TestNoWallClockFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{TransitivePurity}, "internal/clockfix", "scopecheck")
}

func TestSeededRandFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{TransitivePurity}, "internal/randfix", "scopecheck")
}

func TestRawGoFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{TransitivePurity}, "internal/experiments", "scopecheck")
}

// TestUnitFlowFixture: the fixture units package provides the declared
// types (and is itself exempt by package name); unitflowfix holds the
// violations and the blessed conversions.
func TestUnitFlowFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{UnitFlow}, "internal/units", "unitflowfix", "scopecheck")
}

// TestUnitSuffixFixture: unitfix holds single-expression mismatches
// between bare suffixed names, which unitflow reports without any
// declared unit types in play.
func TestUnitSuffixFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, []*Analyzer{UnitFlow}, "unitfix")
}

// TestIgnoreFixture runs the full suite so directives interact with every
// analyzer the way they do in production (including importlayer's
// package-level finding, suppressed on the package clause).
func TestIgnoreFixture(t *testing.T) {
	loader, byPath := loadFixtures(t)
	runOn(t, loader, byPath, Analyzers(), "internal/ignorefix")
}

// TestRunByteDeterministic loads the fixture tree twice from scratch and
// asserts the rendered findings of the full suite are byte-identical:
// analyzer output must not depend on map iteration order anywhere in the
// runner itself.
func TestRunByteDeterministic(t *testing.T) {
	render := func() string {
		loader, pkgs := loadFreshFixtures(t)
		runner := &Runner{Analyzers: Analyzers(), ReportUnusedIgnores: true}
		var b strings.Builder
		for _, d := range runner.Run(loader.Fset, pkgs) {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("full suite produced no findings on the fixture tree")
	}
	if second := render(); second != first {
		t.Errorf("two runs differ:\nrun 1:\n%srun 2:\n%s", first, second)
	}
}

// TestFixtureWantsPresent guards against fixtures silently losing their
// expectations (a fixture with zero wants tests nothing).
func TestFixtureWantsPresent(t *testing.T) {
	loader, byPath := loadFixtures(t)
	perPkg := map[string]int{}
	for path, pkg := range byPath {
		perPkg[path] = len(collectWants(t, loader.Fset, []*Package{pkg}))
	}
	for _, path := range []string{
		"fixture/internal/clockfix",
		"fixture/internal/core",
		"fixture/internal/randfix",
		"fixture/internal/ignorefix",
		"fixture/internal/maporderfix",
		"fixture/internal/experiments",
		"fixture/internal/errdropfix",
		"fixture/internal/codec",
		"fixture/internal/session",
		"fixture/internal/simtime",
		"fixture/internal/mystery",
		"fixture/puritydep",
		"fixture/cmd/errdropcmd",
		"fixture/floateqfix",
		"fixture/unitfix",
		"fixture/unitflowfix",
	} {
		if perPkg[path] == 0 {
			t.Errorf("fixture %s has no want expectations", path)
		}
	}
	if perPkg["fixture/scopecheck"] != 0 {
		t.Errorf("fixture scopecheck must stay expectation-free (it asserts silence)")
	}
}

// TestDiagnosticString pins the file:line:col rendering cmd/rtclint
// prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x/y.go", Line: 3, Column: 7},
		Analyzer: "floateq",
		Message:  "msg",
	}
	if got, want := d.String(), "x/y.go:3:7: [floateq] msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
