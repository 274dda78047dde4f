package callgraph

import (
	"testing"

	"repro/internal/lower"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := lower.SourceString("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(prog)
}

func indexOf(order []string, fn string) int {
	for i, f := range order {
		if f == fn {
			return i
		}
	}
	return -1
}

func TestChainOrder(t *testing.T) {
	g := build(t, `
int c(int x) { return x; }
int b(int x) { return c(x); }
int a(int x) { return b(x); }
`)
	rt := g.ReverseTopo()
	if !(indexOf(rt, "c") < indexOf(rt, "b") && indexOf(rt, "b") < indexOf(rt, "a")) {
		t.Errorf("reverse topo: %v", rt)
	}
	tp := g.Topo()
	if !(indexOf(tp, "a") < indexOf(tp, "b") && indexOf(tp, "b") < indexOf(tp, "c")) {
		t.Errorf("topo: %v", tp)
	}
}

func TestExternCalleesExcludedFromNodes(t *testing.T) {
	g := build(t, `
extern int ext(int x);
int a(int x) { return ext(x); }
`)
	if len(g.Nodes) != 1 {
		t.Fatalf("nodes: %v", g.Nodes)
	}
	if len(g.SCCSuccs(0)) != 0 {
		t.Errorf("defined-callee SCCs: %v", g.SCCSuccs(0))
	}
	if len(g.All["a"]) != 1 || g.All["a"][0] != "ext" {
		t.Errorf("all edges: %v", g.All["a"])
	}
}

func TestMutualRecursionOneSCC(t *testing.T) {
	g := build(t, `
int odd(int n);
int even(int n) { if (n == 0) return 1; return odd(n); }
int odd(int n) { if (n == 0) return 0; return even(n); }
int top(int n) { return even(n); }
`)
	if g.SCCOf("even") != g.SCCOf("odd") {
		t.Error("mutual recursion must share an SCC")
	}
	if g.SCCOf("top") == g.SCCOf("even") {
		t.Error("top must be its own SCC")
	}
	// The recursive SCC precedes its caller in reverse topo order.
	rt := g.ReverseTopo()
	if !(indexOf(rt, "even") < indexOf(rt, "top")) {
		t.Errorf("order: %v", rt)
	}
}

func TestSelfRecursion(t *testing.T) {
	g := build(t, `int f(int n) { if (n == 0) return 0; return f(n); }`)
	sccs := g.SCCs()
	if len(sccs) != 1 || len(sccs[0]) != 1 {
		t.Fatalf("sccs: %v", sccs)
	}
}

func TestSCCDAGDependencies(t *testing.T) {
	g := build(t, `
int leaf(int x) { return x; }
int mid(int x) { return leaf(x); }
int top(int x) { return mid(leaf(x)); }
`)
	topSCC := g.SCCOf("top")
	deps := g.SCCSuccs(topSCC)
	// top depends on mid's and leaf's SCCs; all precede it.
	if len(deps) != 2 {
		t.Fatalf("deps: %v", deps)
	}
	for _, d := range deps {
		if d >= topSCC {
			t.Errorf("dependency %d does not precede %d", d, topSCC)
		}
	}
}

func TestSCCsReverseTopoInvariant(t *testing.T) {
	g := build(t, `
int e(int x) { return x; }
int d(int x) { return e(x); }
int c(int x) { return d(x); }
int b(int x) { return c(x); }
int a(int x) { return b(x) + c(x); }
`)
	// Every SCC's dependencies have smaller indices.
	for i := range g.SCCs() {
		for _, d := range g.SCCSuccs(i) {
			if d >= i {
				t.Errorf("SCC %d depends on %d (not earlier)", i, d)
			}
		}
	}
}

func TestDeterministicOrder(t *testing.T) {
	src := `
int z(int x) { return x; }
int y(int x) { return z(x); }
int x(int x2) { return y(x2); }
`
	a := build(t, src).ReverseTopo()
	b := build(t, src).ReverseTopo()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs: %v vs %v", a, b)
		}
	}
}
