// Package lint is a repo-specific static-analysis suite. It machine-checks
// invariants that keep this reproduction trustworthy, one analyzer per
// invariant, where no dynamic gate stands in: hot-path allocation, shard
// ownership, package-level state, sequence-number arithmetic and config
// validation are left to the allocation gates, the -race jobs, the
// snapshots, the RTP wrap tests and the constructors' own Validate calls,
// which fail on every planted instance (EXPERIMENTS.md, "Static checks
// only where a dynamic gate is blind"). A session is a pure function of
// (config, seed), so no wall clock, global math/rand draw, or ad-hoc
// goroutine sits in an internal/ package or is reachable from the
// simulation entry points (transitivepurity); rate, size, and time
// quantities never mix units, the classic kbps-vs-bps rate-control bug
// (unitflow); no order-sensitive body ranges over a map (maporder);
// floating-point quantities are never compared with == (floateq); errors
// are not silently dropped (errdrop); and imports follow the layer table
// (importlayer).
//
// The driver is built on go/parser and go/types only — no dependencies
// outside the standard library, matching the module's zero-dependency
// go.mod.
//
// Findings can be suppressed with an escape hatch comment on the flagged
// line or the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare directive is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fix, when non-nil, is a mechanical rewrite that resolves the
	// finding. rtclint -fix applies it.
	Fix *SuggestedFix
}

// String renders the finding in file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is the per-package view handed to an analyzer. Prog is the shared
// whole-module view for interprocedural analyzers; reporting stays
// per-package (an analyzer reports only findings positioned in its own
// pass), which keeps output order and //lint:ignore handling uniform.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string
	Module   string
	Files    []*ast.File
	Sources  map[string][]byte
	Pkg      *types.Package
	Info     *types.Info
	Prog     *Program

	diags *[]Diagnostic
}

// Internal reports whether the package lives under an internal/ tree —
// the scope where the determinism invariants are enforced.
func (p *Pass) Internal() bool {
	return p.Path == "internal" ||
		strings.HasPrefix(p.Path, "internal/") ||
		strings.Contains(p.Path, "/internal/") ||
		strings.HasSuffix(p.Path, "/internal")
}

// Rel returns the package path relative to the module root: "." for the
// root package, "internal/cc" for rtcadapt/internal/cc. It is the key
// the layer table and path-scoped analyzers match on.
func (p *Pass) Rel() string {
	return relPath(p.Module, p.Path)
}

// relPath maps an import path inside module to its module-relative form.
// Paths outside the module are returned unchanged.
func relPath(module, path string) string {
	if path == module {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return rest
	}
	return path
}

// unparen strips redundant parentheses. Shared by analyzers that reason
// about "bare" named operands.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Report records a fully built finding (used by analyzers that attach
// suggested fixes). The position is resolved from pos.
func (p *Pass) Report(pos token.Pos, message string, fix *SuggestedFix) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  message,
		Fix:      fix,
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite in stable order: the file-local and
// cross-package checks, the interprocedural purity prover, then the
// dimensional unit-flow pass.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatEq,
		MapOrder,
		ErrDrop,
		ImportLayer,
		TransitivePurity,
		UnitFlow,
	}
}

// Select returns the subset of the full suite whose names appear in
// names, preserving suite order. Unknown names are returned in the
// second result so callers can reject typos loudly.
func Select(names []string) (selected []*Analyzer, unknown []string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for _, a := range Analyzers() {
		if want[a.Name] {
			selected = append(selected, a)
			delete(want, a.Name)
		}
	}
	for n := range want {
		unknown = append(unknown, n)
	}
	sort.Strings(unknown)
	return selected, unknown
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos      token.Position
	start    token.Pos
	end      token.Pos
	analyzer string
	reason   string
	used     bool
}

// Runner applies a set of analyzers to loaded packages and filters the
// findings through //lint:ignore directives.
type Runner struct {
	Analyzers []*Analyzer
	// ReportUnusedIgnores adds a diagnostic for every directive that
	// suppressed nothing. Enable only when running the full suite;
	// under a partial suite a directive for an unselected analyzer
	// would be falsely stale.
	ReportUnusedIgnores bool
}

// Run analyzes the packages and returns surviving findings sorted by
// position.
func (r *Runner) Run(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	var directives []*ignoreDirective
	prog := &Program{Fset: fset, Pkgs: pkgs}
	for _, pkg := range pkgs {
		directives = append(directives, collectDirectives(fset, pkg.Files, &diags)...)
		for _, a := range r.Analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Path:     pkg.Path,
				Module:   pkg.Module,
				Files:    pkg.Files,
				Sources:  pkg.Sources,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	diags = applyIgnores(diags, directives)
	if r.ReportUnusedIgnores {
		known := make(map[string]bool, len(r.Analyzers))
		for _, a := range r.Analyzers {
			known[a.Name] = true
		}
		for _, d := range directives {
			if !known[d.analyzer] {
				// A directive naming a nonexistent analyzer suppresses
				// nothing and never will — typically a typo or a check
				// that was since renamed.
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: "lint",
					Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q (run rtclint -list for the suite)", d.analyzer),
					Fix: &SuggestedFix{
						Message: "delete the stale directive",
						Edits:   []TextEdit{{Pos: d.start, End: d.end, DropBlankLine: true}},
					},
				})
				continue
			}
			if !d.used {
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: "lint",
					Message:  fmt.Sprintf("unused //lint:ignore %s directive (nothing suppressed)", d.analyzer),
					Fix: &SuggestedFix{
						Message: "delete the stale directive",
						Edits:   []TextEdit{{Pos: d.start, End: d.end, DropBlankLine: true}},
					},
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

const ignorePrefix = "//lint:ignore"

// collectDirectives parses every //lint:ignore comment in the files.
// Malformed directives (missing analyzer name or reason) are reported as
// findings so the escape hatch cannot silently rot.
func collectDirectives(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos:      fset.Position(c.Pos()),
						Analyzer: "lint",
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				out = append(out, &ignoreDirective{
					pos:      fset.Position(c.Pos()),
					start:    c.Pos(),
					end:      c.End(),
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return out
}

// applyIgnores drops findings covered by a directive on the same line or
// the line directly above, in the same file.
func applyIgnores(diags []Diagnostic, directives []*ignoreDirective) []Diagnostic {
	if len(directives) == 0 {
		return diags
	}
	type key struct {
		file     string
		line     int
		analyzer string
	}
	index := make(map[key]*ignoreDirective)
	for _, d := range directives {
		index[key{d.pos.Filename, d.pos.Line, d.analyzer}] = d
		index[key{d.pos.Filename, d.pos.Line + 1, d.analyzer}] = d
	}
	var kept []Diagnostic
	for _, diag := range diags {
		if diag.Analyzer != "lint" {
			if d, ok := index[key{diag.Pos.Filename, diag.Pos.Line, diag.Analyzer}]; ok {
				d.used = true
				continue
			}
		}
		kept = append(kept, diag)
	}
	return kept
}
