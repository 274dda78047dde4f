package cfg

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/racebuild"
)

func mustCFG(t *testing.T, src, fn string) *Graph {
	t.Helper()
	prog, err := lower.SourceString("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs[fn]
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	return New(f)
}

func TestStraightLine(t *testing.T) {
	g := mustCFG(t, `int f(int a) { g(a); return a; }`, "f")
	res := g.Enumerate(0)
	if len(res.Paths) != 1 || res.Truncated {
		t.Fatalf("paths: %+v", res)
	}
	if g.HasLoop() {
		t.Error("no loop expected")
	}
}

func TestDiamond(t *testing.T) {
	g := mustCFG(t, `
int f(int a) {
    int r = 0;
    if (a > 0)
        r = g(a);
    else
        r = h(a);
    return r;
}`, "f")
	res := g.Enumerate(0)
	if len(res.Paths) != 2 {
		t.Fatalf("paths: %d, want 2", len(res.Paths))
	}
	// Both paths start at the entry and end in a return block.
	for _, p := range res.Paths {
		if p.Blocks[0] != 0 {
			t.Errorf("path does not start at entry: %v", p.Blocks)
		}
		last := g.Fn.Body().Blocks[p.Blocks[len(p.Blocks)-1]]
		if last.Terminator().Op != ir.OpReturn {
			t.Errorf("path does not end in return: %v", p.Blocks)
		}
	}
}

func TestNestedBranches(t *testing.T) {
	g := mustCFG(t, `
int f(int a, int b, int c) {
    int r = 0;
    if (a > 0) r = g(a);
    if (b > 0) r = g(b);
    if (c > 0) r = g(c);
    return r;
}`, "f")
	res := g.Enumerate(0)
	if len(res.Paths) != 8 {
		t.Fatalf("paths: %d, want 8", len(res.Paths))
	}
}

func TestLoopUnrolledOnce(t *testing.T) {
	g := mustCFG(t, `
int f(int n) {
    int i = 0;
    while (i < n)
        i = g(i);
    return i;
}`, "f")
	if !g.HasLoop() {
		t.Fatal("loop not detected")
	}
	res := g.Enumerate(0)
	// Zero iterations or one iteration: exactly two paths.
	if len(res.Paths) != 2 {
		t.Fatalf("paths: %d, want 2", len(res.Paths))
	}
	// The one-iteration path must revisit the condition block.
	longer := res.Paths[0]
	if len(res.Paths[1].Blocks) > len(longer.Blocks) {
		longer = res.Paths[1]
	}
	seen := map[int]int{}
	for _, b := range longer.Blocks {
		seen[b]++
	}
	revisited := false
	for _, n := range seen {
		if n == 2 {
			revisited = true
		}
		if n > 2 {
			t.Errorf("block visited %d times", n)
		}
	}
	if !revisited {
		t.Error("unrolled path should revisit the loop header")
	}
}

func TestNestedLoopsBounded(t *testing.T) {
	g := mustCFG(t, `
int f(int n) {
    int i = 0;
    while (i < n) {
        int j = 0;
        while (j < n)
            j = g(j);
        i = g(i);
    }
    return i;
}`, "f")
	res := g.Enumerate(0)
	if res.Truncated {
		t.Fatal("nested loops must terminate without truncation at default budget")
	}
	if len(res.Paths) < 3 {
		t.Errorf("paths: %d", len(res.Paths))
	}
}

func TestPathBudgetTruncation(t *testing.T) {
	// 12 sequential branches = 4096 paths; budget 100 truncates.
	src := `int f(int a) { int r = 0;`
	for i := 0; i < 12; i++ {
		src += `if (a > 0) r = g(a);`
	}
	src += `return r; }`
	g := mustCFG(t, src, "f")
	res := g.Enumerate(100)
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if len(res.Paths) != 100 {
		t.Errorf("paths: %d, want 100", len(res.Paths))
	}
}

// TestPathBudgetExact: a function with exactly maxPaths paths is fully
// enumerated, and only a (maxPaths+1)-th path makes the result truncated.
func TestPathBudgetExact(t *testing.T) {
	g := mustCFG(t, `
int f(int a) {
    int r = 0;
    if (a > 0)
        r = g(a);
    else
        r = h(a);
    return r;
}`, "f")
	for _, tc := range []struct {
		budget, paths int
		truncated     bool
	}{{1, 1, true}, {2, 2, false}, {3, 2, false}} {
		res := g.Enumerate(tc.budget)
		if len(res.Paths) != tc.paths || res.Truncated != tc.truncated {
			t.Errorf("Enumerate(%d): %d paths, truncated=%v; want %d, %v",
				tc.budget, len(res.Paths), res.Truncated, tc.paths, tc.truncated)
		}
	}
	// 2^3 paths: exactly at a budget of 8, one over at 7.
	g = mustCFG(t, `
int f(int a, int b, int c) {
    int r = 0;
    if (a > 0) r = g(a);
    if (b > 0) r = g(b);
    if (c > 0) r = g(c);
    return r;
}`, "f")
	if res := g.Enumerate(8); len(res.Paths) != 8 || res.Truncated {
		t.Errorf("Enumerate(8): %d paths, truncated=%v; want 8, false", len(res.Paths), res.Truncated)
	}
	if res := g.Enumerate(7); len(res.Paths) != 7 || !res.Truncated {
		t.Errorf("Enumerate(7): %d paths, truncated=%v; want 7, true", len(res.Paths), res.Truncated)
	}
}

// TestPathsFrozenExactSize: the paths of a result are carved at
// cap == len from one array, so appending to one path reallocates it and
// leaves its siblings as they were — also when the recycled graph of
// Paths has since enumerated other functions.
func TestPathsFrozenExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var results []EnumerateResult
	var want [][][]int
	for trial := 0; trial < 40; trial++ {
		src := `int f(int a, int b) { int r = 0;`
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				src += `if (a > 0) r = g(a);`
			case 1:
				src += `if (b < 0) { r = g(b); } else { r = h(b); }`
			case 2:
				src += `while (r > 0) r = g(r);`
			}
		}
		src += `return r; }`
		g := mustCFG(t, src, "f")
		budget := 1 + rng.Intn(40)
		res := Paths(context.Background(), g.Fn, budget, nil)
		if ref := g.Enumerate(budget); ref.Truncated != res.Truncated || len(ref.Paths) != len(res.Paths) {
			t.Fatalf("trial %d: recycled graph gives %d paths (truncated=%v), a fresh one %d (%v)",
				trial, len(res.Paths), res.Truncated, len(ref.Paths), ref.Truncated)
		}
		snap := make([][]int, len(res.Paths))
		for i, p := range res.Paths {
			if cap(p.Blocks) != len(p.Blocks) {
				t.Fatalf("trial %d: path %d has cap %d, len %d", trial, i, cap(p.Blocks), len(p.Blocks))
			}
			snap[i] = append([]int(nil), p.Blocks...)
		}
		results = append(results, res)
		want = append(want, snap)
	}
	for r, res := range results {
		for i := range res.Paths {
			_ = append(res.Paths[i].Blocks, -7)
		}
		for i, p := range res.Paths {
			if !slices.Equal(p.Blocks, want[r][i]) {
				t.Fatalf("result %d path %d changed: %v, was %v", r, i, p.Blocks, want[r][i])
			}
		}
	}
}

// TestGraphReleaseContract pins the build-tagged halves of release: the
// normal build keeps a recycled graph's storage for the next function and
// drops only the function, and the race build poisons the storage a stale
// alias could read and drops it.
func TestGraphReleaseContract(t *testing.T) {
	g := mustCFG(t, `int f(int a) { while (a > 0) a = g(a); return a; }`, "f")
	g.Enumerate(0)
	succ, flat := g.succBack, g.en.flat
	g.release()
	if g.Fn != nil {
		t.Error("a released graph pins its function")
	}
	if racebuild.Enabled {
		if succ[0] != -1 || flat[0] != -1 {
			t.Error("race build must poison released storage")
		}
		if g.Succ != nil || g.succBack != nil || g.en.flat != nil {
			t.Error("race build must drop poisoned storage")
		}
		return
	}
	if cap(g.succBack) == 0 || cap(g.en.flat) == 0 {
		t.Error("the normal build must keep a released graph's storage")
	}
}

func TestReachability(t *testing.T) {
	g := mustCFG(t, `
int f(int a) {
    if (a > 0)
        return 1;
    return 0;
}`, "f")
	if g.NumReachable() == 0 {
		t.Fatal("entry must be reachable")
	}
	if !g.Reachable(0) {
		t.Error("entry unreachable?")
	}
}

func TestPathInstrs(t *testing.T) {
	g := mustCFG(t, `int f(int a) { g(a); return a; }`, "f")
	res := g.Enumerate(0)
	instrs := res.Paths[0].Instrs(g.Fn)
	if len(instrs) == 0 {
		t.Fatal("no instructions")
	}
	if instrs[len(instrs)-1].Op != ir.OpReturn {
		t.Error("path must end with return")
	}
}

// Property: on randomly generated branchy functions, every enumerated path
// starts at the entry, ends at a return, follows real CFG edges, and takes
// each back edge at most once.
func TestPropertyPathsWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		src := `int f(int a, int b) { int r = 0;`
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				src += `if (a > 0) r = g(a);`
			case 1:
				src += `if (b < 0) { r = g(b); } else { r = h(b); }`
			case 2:
				src += `while (r > 0) r = g(r);`
			}
		}
		src += `return r; }`
		g := mustCFG(t, src, "f")
		res := g.Enumerate(200)
		if len(res.Paths) == 0 {
			t.Fatalf("trial %d: no paths", trial)
		}
		for _, p := range res.Paths {
			if p.Blocks[0] != 0 {
				t.Fatalf("trial %d: path starts at b%d", trial, p.Blocks[0])
			}
			usedBack := map[[2]int]int{}
			for i := 0; i+1 < len(p.Blocks); i++ {
				from, to := p.Blocks[i], p.Blocks[i+1]
				found := false
				for _, s := range g.Succ[from] {
					if s == to {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: edge b%d->b%d not in CFG", trial, from, to)
				}
				if g.IsBackEdge(from, to) {
					usedBack[[2]int{from, to}]++
					if usedBack[[2]int{from, to}] > 1 {
						t.Fatalf("trial %d: back edge taken twice", trial)
					}
				}
			}
			last := g.Fn.Body().Blocks[p.Blocks[len(p.Blocks)-1]]
			if last.Terminator().Op != ir.OpReturn {
				t.Fatalf("trial %d: path does not end at return", trial)
			}
		}
	}
}

func TestGotoLoopDetected(t *testing.T) {
	g := mustCFG(t, `
int f(int a) {
again:
    a = g(a);
    if (a > 0)
        goto again;
    return a;
}`, "f")
	if !g.HasLoop() {
		t.Fatal("goto loop not detected")
	}
	res := g.Enumerate(0)
	if len(res.Paths) != 2 {
		t.Errorf("paths: %d, want 2", len(res.Paths))
	}
}

// Instrs returns the straight-line instruction sequence of the path,
// including each block's terminator.
func (p Path) Instrs(fn *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	blocks := fn.Body().Blocks
	for _, b := range p.Blocks {
		out = append(out, blocks[b].Instrs...)
	}
	return out
}
