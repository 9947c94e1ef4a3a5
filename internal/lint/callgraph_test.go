package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// buildFixtureGraph builds the call graph over the named fixture
// packages.
func buildFixtureGraph(t *testing.T, paths ...string) (*CallGraph, map[string]*Package) {
	t.Helper()
	loader, byPath := loadFixtures(t)
	var pkgs []*Package
	for _, p := range paths {
		pkg, ok := byPath[fixturePrefix+"/"+p]
		if !ok {
			t.Fatalf("fixture package %q not loaded", p)
		}
		pkgs = append(pkgs, pkg)
	}
	return buildCallGraph(loader.Fset, pkgs), byPath
}

// lookupFunc resolves "F" or "T.M" in a fixture package to its object.
func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	scope := pkg.Types.Scope()
	if typeName, method, ok := strings.Cut(name, "."); ok {
		tn, ok := scope.Lookup(typeName).(*types.TypeName)
		if !ok {
			t.Fatalf("type %s not found in %s", typeName, pkg.Path)
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				return m
			}
		}
		t.Fatalf("method %s not found on %s.%s", method, pkg.Path, typeName)
	}
	fn, ok := scope.Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("func %s not found in %s", name, pkg.Path)
	}
	return fn
}

// edgeStrings renders a node's outgoing edges as "kind callee", sorted.
func edgeStrings(g *CallGraph, n *CGNode) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, fmt.Sprintf("%s %s", e.Kind, g.Name(e.Callee)))
	}
	sort.Strings(out)
	return out
}

func TestCallGraphEdges(t *testing.T) {
	g, byPath := buildFixtureGraph(t, "callgraphfix")
	pkg := byPath[fixturePrefix+"/callgraphfix"]

	node := func(name string) *CGNode {
		n := g.NodeOf(lookupFunc(t, pkg, name))
		if n == nil {
			t.Fatalf("no node for %s", name)
		}
		return n
	}
	assertEdges := func(name string, want ...string) {
		t.Helper()
		sort.Strings(want)
		got := edgeStrings(g, node(name))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s edges = %v, want %v", name, got, want)
		}
	}

	assertEdges("Static", "static callgraphfix.helper")
	// Interface dispatch fans out to both implementations plus the
	// interface method leaf.
	assertEdges("Dispatch",
		"iface (callgraphfix.English).Greet",
		"iface (*callgraphfix.Terse).Greet",
		"iface (callgraphfix.Greeter).Greet")
	assertEdges("Ref", "ref callgraphfix.helper")
	assertEdges("MethodRef", "ref (callgraphfix.English).Greet")
	assertEdges("CallsGeneric", "static callgraphfix.Generic")
	assertEdges("ExplicitInst", "static callgraphfix.Generic")

	spawner := node("Spawner")
	if len(spawner.Spawns) != 1 {
		t.Errorf("Spawner records %d spawns, want 1", len(spawner.Spawns))
	}
	assertEdges("Spawner", "static callgraphfix.helper")

	// Leaves have no declaration; module functions do.
	if node("Static").Decl == nil {
		t.Errorf("module function Static has no Decl")
	}
}

// TestCallGraphDeterministic builds the graph twice from fresh loads and
// compares the full rendered edge lists: interface resolution and node
// ordering must not depend on map iteration.
func TestCallGraphDeterministic(t *testing.T) {
	render := func() string {
		loader, pkgs := loadFreshFixtures(t)
		g := buildCallGraph(loader.Fset, pkgs)
		var b strings.Builder
		for _, n := range g.ModuleNodes {
			b.WriteString(g.Name(n))
			b.WriteByte('\n')
			for _, e := range n.Out {
				fmt.Fprintf(&b, "  %s %s @%d\n", e.Kind, g.Name(e.Callee), e.Pos)
			}
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("graph rendered empty over the fixture tree")
	}
	if second := render(); second != first {
		t.Error("two graph builds differ")
	}
}
