package lint

import "go/token"

// Program is the whole-module view shared by the interprocedural
// analyzers. The per-package Pass model stays the unit of reporting, but
// a call-graph analyzer cannot reason about one package in isolation:
// whether session.Run reaches time.Now depends on every package it can
// call into. Runner.Run builds one Program per run and hands the same
// instance to every pass; expensive whole-program artifacts (the call
// graph, the purity reachability result) are computed once on first use
// and memoized here. The runner is single-goroutine, so no locking.
type Program struct {
	Fset *token.FileSet
	// Pkgs is every package of the run, sorted by import path (the
	// loader's order). Fixture trees and the real module both flow
	// through here, so analyzers must key packages by module-relative
	// path (Package.Module + Path), never by hard-coded full paths.
	Pkgs []*Package

	graph    *CallGraph
	purity   *purityResult
	unitFlow *unitFlowResult
}

// Graph returns the module call graph, building it on first use.
func (prog *Program) Graph() *CallGraph {
	if prog.graph == nil {
		prog.graph = buildCallGraph(prog.Fset, prog.Pkgs)
	}
	return prog.graph
}

// rel maps a loaded package to its module-relative path ("internal/cc").
func (prog *Program) rel(pkg *Package) string {
	return relPath(pkg.Module, pkg.Path)
}
