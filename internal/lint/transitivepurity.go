package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// TransitivePurity keeps a session a pure function of (config, seed). It
// reports every wall-clock read, global math/rand draw, and goroutine
// spawn outside the experiments worker pool once, if the site is in
// either of two scopes:
//
//   - reachable: the module call graph reaches the site from the exported
//     API of an entry package (purityEntryPkgs: internal/core,
//     internal/experiments, internal/fleet, internal/scenario,
//     internal/session), in any module package and however many calls
//     deep. The finding prints the taint path from the entry point, one
//     call edge per hop with the call-site location, so a violation two
//     packages away is still a one-line diagnosis. This is the invariant
//     the fleet scheduler needs: a session is only a shard-safe unit of
//     work if its entire dynamic extent is pure.
//   - internal: the site is in an internal/ package, found by a per-site
//     walk over identifier uses and go statements. This walk catches what
//     the call graph attributes to no function, such as a package-level
//     `var t0 = time.Now()`, and code no entry point reaches yet. The
//     finding has no path.
//
// A site in both scopes is reported once, with its path. Matching goes
// through go/types, so import renames and dot-imports are caught and
// same-named local identifiers are not.
var TransitivePurity = &Analyzer{
	Name: "transitivepurity",
	Doc: "forbid wall clock, unseeded rand, and goroutine spawns in internal packages " +
		"and anywhere reachable from the entry packages (taint path per reachable finding)",
	Run: runTransitivePurity,
}

// wallClockFuncs are the "time" package functions that read or wait on the
// real clock. time.Duration arithmetic and formatting stay allowed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the shared global source. Constructors (New,
// NewSource, NewZipf) stay allowed: internal/stats wraps them to build
// per-component streams.
var globalRandFuncs = map[string]bool{
	"Int":         true,
	"Intn":        true,
	"Int31":       true,
	"Int31n":      true,
	"Int63":       true,
	"Int63n":      true,
	"IntN":        true, // math/rand/v2 spellings
	"Int32":       true,
	"Int32N":      true,
	"Int64":       true,
	"Int64N":      true,
	"N":           true,
	"Uint":        true,
	"Uint32":      true,
	"Uint32N":     true,
	"Uint64":      true,
	"Uint64N":     true,
	"UintN":       true,
	"Float32":     true,
	"Float64":     true,
	"ExpFloat64":  true,
	"NormFloat64": true,
	"Perm":        true,
	"Shuffle":     true,
	"Read":        true,
	"Seed":        true,
}

// spawnExemptPkg and spawnExemptFile name the one file allowed to spawn
// goroutines: the deterministic worker pool, which keys results by cell
// index so parallel output stays byte-identical to sequential.
const (
	spawnExemptPkg  = "internal/experiments"
	spawnExemptFile = "runner.go"
)

// spawnDetail is the remediation clause of every goroutine finding.
const spawnDetail = "route concurrency through the deterministic experiments.Runner worker pool"

// purityEntryPkgs are the module-relative packages whose exported API
// forms the entry-point set: the packages that build, run, and schedule
// sessions as units of work.
var purityEntryPkgs = map[string]bool{
	"internal/core":        true,
	"internal/experiments": true,
	"internal/fleet":       true,
	"internal/scenario":    true,
	"internal/session":     true,
}

// purityFinding is one computed violation, bucketed by the package that
// owns its position.
type purityFinding struct {
	pos token.Pos
	msg string
}

// purityResult is the memoized whole-program analysis.
type purityResult struct {
	byPkg map[string][]purityFinding
}

func runTransitivePurity(pass *Pass) {
	prog := pass.Prog
	if prog.purity == nil {
		prog.purity = computePurity(prog)
	}
	reached := make(map[token.Pos]bool)
	for _, f := range prog.purity.byPkg[pass.Path] {
		reached[f.pos] = true
		pass.Reportf(f.pos, "%s", f.msg)
	}
	if !pass.Internal() {
		return
	}
	report := func(pos token.Pos, kind, detail string) {
		if !reached[pos] {
			pass.Reportf(pos, "%s in internal package: %s", kind, detail)
		}
	}
	for ident, obj := range pass.Info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			if kind, detail := puritySink(fn); kind != "" {
				report(ident.Pos(), kind, detail)
			}
		}
	}
	for _, f := range pass.Files {
		if spawnExempt(pass.Rel(), pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				report(g.Pos(), "goroutine spawn", spawnDetail)
			}
			return true
		})
	}
}

// purityParent records how BFS first reached a node, for path
// reconstruction.
type purityParent struct {
	node *CGNode
	edge CGEdge
}

// computePurity runs the reachability proof once per Runner.Run.
func computePurity(prog *Program) *purityResult {
	g := prog.Graph()
	res := &purityResult{byPkg: make(map[string][]purityFinding)}

	// Entry points: exported functions, and exported methods on exported
	// types, of the entry packages.
	var roots []*CGNode
	for _, n := range g.ModuleNodes {
		if n.Pkg == nil || !purityEntryPkgs[prog.rel(n.Pkg)] {
			continue
		}
		if !purityEntryNode(n) {
			continue
		}
		roots = append(roots, n)
	}
	sort.Slice(roots, func(i, j int) bool { return g.Name(roots[i]) < g.Name(roots[j]) })

	parent := make(map[*CGNode]purityParent)
	var queue []*CGNode
	for _, r := range roots {
		if _, seen := parent[r]; seen {
			continue
		}
		parent[r] = purityParent{}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, seen := parent[e.Callee]; seen || e.Callee.Decl == nil {
				continue
			}
			parent[e.Callee] = purityParent{node: n, edge: e}
			queue = append(queue, e.Callee)
		}
	}

	// Walk the reachable set in deterministic order and collect sink
	// edges and goroutine spawns.
	for _, n := range g.ModuleNodes {
		if _, reachable := parent[n]; !reachable {
			continue
		}
		for _, e := range n.Out {
			kind, detail := puritySink(e.Callee.Func)
			if kind == "" {
				continue
			}
			res.add(n, e.Pos,
				fmt.Sprintf("%s reachable from entry point %s%s: %s",
					kind, purityRootName(g, parent, n),
					purityPath(g, parent, n, fmt.Sprintf("%s @%s", g.Name(e.Callee), purityLoc(g, e.Pos))),
					detail))
		}
		for _, pos := range n.Spawns {
			if spawnExempt(prog.rel(n.Pkg), g.fset.Position(pos).Filename) {
				continue
			}
			res.add(n, pos,
				fmt.Sprintf("goroutine spawn reachable from entry point %s%s: %s",
					purityRootName(g, parent, n),
					purityPath(g, parent, n, fmt.Sprintf("go statement @%s", purityLoc(g, pos))),
					spawnDetail))
		}
	}
	return res
}

// add buckets a finding under the package that owns pos (the caller's
// package — sinks sit at call sites inside module code).
func (res *purityResult) add(n *CGNode, pos token.Pos, msg string) {
	if n.Pkg == nil {
		return
	}
	res.byPkg[n.Pkg.Path] = append(res.byPkg[n.Pkg.Path], purityFinding{pos: pos, msg: msg})
}

// purityEntryNode reports whether a declared function is part of the
// exported API: exported name and, for methods, an exported receiver
// base type.
func purityEntryNode(n *CGNode) bool {
	fn := n.Func
	if !fn.Exported() {
		return false
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// puritySink classifies a callee as a purity sink. kind is "" for clean
// callees; detail is the remediation clause appended to the finding.
func puritySink(fn *types.Func) (kind, detail string) {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	switch path := fn.Pkg().Path(); path {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "wall-clock time." + fn.Name(),
				"all time must flow through the internal/simtime virtual clock"
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] {
			return "global " + path + "." + fn.Name(),
				"use a seeded internal/stats RNG owned by the component"
		}
	}
	return "", ""
}

// spawnExempt reports whether a go statement in the named file of the
// module-relative package rel sits in the sanctioned worker pool.
func spawnExempt(rel, filename string) bool {
	return rel == spawnExemptPkg && filepath.Base(filename) == spawnExemptFile
}

// purityRootName names the entry point whose BFS tree contains n.
func purityRootName(g *CallGraph, parent map[*CGNode]purityParent, n *CGNode) string {
	for parent[n].node != nil {
		n = parent[n].node
	}
	return g.Name(n)
}

// purityPath renders the taint path from the entry point to n, appending
// the final sink hop, as "(path: root -> f @file:line -> ... -> sink)".
// The empty string is returned only for degenerate single-node paths
// with no hops, which cannot happen for sinks (the sink hop is always
// appended).
func purityPath(g *CallGraph, parent map[*CGNode]purityParent, n *CGNode, sinkHop string) string {
	var hops []string
	for parent[n].node != nil {
		p := parent[n]
		hops = append(hops, fmt.Sprintf("%s @%s", g.Name(n), purityLoc(g, p.edge.Pos)))
		n = p.node
	}
	hops = append(hops, g.Name(n))
	// hops is sink-to-root; reverse into call order.
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	hops = append(hops, sinkHop)
	return fmt.Sprintf(" (path: %s)", strings.Join(hops, " -> "))
}

// purityLoc renders a position as base-filename:line — stable across
// checkouts, compact enough for one-line findings.
func purityLoc(g *CallGraph, pos token.Pos) string {
	p := g.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
