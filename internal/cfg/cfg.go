// Package cfg provides control-flow-graph utilities over the abstract IR:
// successor/predecessor maps, back-edge detection, reachability, and the
// entry-to-exit path enumeration of analysis Step I (§4.2), with loops
// unrolled at most once and a configurable path budget.
package cfg

import (
	"context"
	"sync"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/racebuild"
)

// Graph is the CFG view of a function.
type Graph struct {
	Fn   *ir.Func
	Succ [][]int
	Pred [][]int
	// Edges are numbered by their place in the successor backing array:
	// edge edge0[b]+k is b → Succ[b][k].
	edge0 []int
	back  []bool  // back[e]: edge e closes a loop
	loops bool    // some edge closes a loop
	reach []uint8 // DFS state: 0 unvisited (unreachable), 2 done (reachable)

	// Construction scratch, kept for reuse by pooled graphs.
	succBack, predBack, indeg []int
	dfs                       []frame

	// Enumeration state, live only inside EnumerateCtx.
	en enumState
}

type frame struct {
	node int
	next int
}

// New builds the CFG for fn. Successor and predecessor lists are carved
// out of two shared backing arrays sized by a counting pass, so graph
// construction costs a fixed number of allocations regardless of block
// count.
func New(fn *ir.Func) *Graph {
	g := new(Graph)
	g.build(fn)
	return g
}

// graphPool recycles the graphs that Paths builds. A borrowed graph never
// leaves the Paths call; only the frozen EnumerateResult does.
var graphPool = sync.Pool{New: func() any { return new(Graph) }}

// Paths is Step I as the symbolic executor runs it: build fn's CFG in a
// recycled graph, enumerate under observation (EnumerateObs), and return
// the graph. Everything the result holds was allocated for it.
func Paths(ctx context.Context, fn *ir.Func, maxPaths int, o *obs.Obs) EnumerateResult {
	g := graphPool.Get().(*Graph)
	g.build(fn)
	res := g.EnumerateObs(ctx, maxPaths, o)
	g.release()
	graphPool.Put(g)
	return res
}

// release drops the graph's references to the function and, in -race
// builds, poisons and drops its storage.
func (g *Graph) release() {
	g.Fn = nil
	if racebuild.Enabled {
		for _, s := range [][]int{g.succBack, g.predBack, g.indeg, g.edge0, g.en.cur, g.en.flat, g.en.ends} {
			for i := range s {
				s[i] = -1
			}
		}
		*g = Graph{}
	}
}

// grow returns s resized to n, reusing its storage when it is big enough.
// The contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build fills g with fn's CFG, reusing g's storage.
func (g *Graph) build(fn *ir.Func) {
	blocks := fn.Body().Blocks
	n := len(blocks)
	g.Fn = fn
	g.Succ = grow(g.Succ, n)
	g.Pred = grow(g.Pred, n)
	g.edge0 = grow(g.edge0, n)
	// Pass 1: count edges and per-block indegrees.
	total := 0
	indeg := grow(g.indeg, n)
	clear(indeg)
	for _, b := range blocks {
		total += b.NumSuccs()
		var two [2]int
		for _, s := range b.AppendSuccs(two[:0]) {
			indeg[s]++
		}
	}
	g.indeg = indeg
	// Pass 2: carve Succ lists out of one backing array.
	succBack := grow(g.succBack, total)[:0]
	for _, b := range blocks {
		lo := len(succBack)
		g.edge0[b.Index] = lo
		succBack = b.AppendSuccs(succBack)
		g.Succ[b.Index] = succBack[lo:len(succBack):len(succBack)]
	}
	g.succBack = succBack
	// Pass 3: carve Pred lists at their final sizes and fill.
	predBack := grow(g.predBack, total)
	g.predBack = predBack
	off := 0
	for i := 0; i < n; i++ {
		g.Pred[i] = predBack[off : off : off+indeg[i]]
		off += indeg[i]
	}
	for _, b := range blocks {
		for _, s := range g.Succ[b.Index] {
			g.Pred[s] = append(g.Pred[s], b.Index)
		}
	}
	g.findBackEdges()
}

// findBackEdges marks edges whose target is on the current DFS stack.
// The DFS visits exactly the blocks reachable from the entry, so its
// final visitation state doubles as the reachability set — no separate
// traversal or bitmap.
func (g *Graph) findBackEdges() {
	n := len(g.Succ)
	g.reach = grow(g.reach, n) // 0 unvisited, 1 on stack, 2 done
	state := g.reach
	clear(state)
	g.back = grow(g.back, len(g.succBack))
	clear(g.back)
	g.loops = false
	// Iterative DFS to avoid recursion limits on generated functions.
	// Each node is pushed at most once, so the stack never exceeds n.
	stack := g.dfs[:0]
	state[0] = 1
	stack = append(stack, frame{0, 0})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Succ[f.node]) {
			e := g.edge0[f.node] + f.next
			s := g.Succ[f.node][f.next]
			f.next++
			switch state[s] {
			case 0:
				state[s] = 1
				stack = append(stack, frame{s, 0})
			case 1:
				g.back[e] = true
				g.loops = true
			}
			continue
		}
		state[f.node] = 2
		stack = stack[:len(stack)-1]
	}
	g.dfs = stack
}

// IsBackEdge reports whether from→to closes a loop.
func (g *Graph) IsBackEdge(from, to int) bool {
	for k, s := range g.Succ[from] {
		if s == to {
			return g.back[g.edge0[from]+k]
		}
	}
	return false
}

// Reachable reports whether block b is reachable from the entry.
func (g *Graph) Reachable(b int) bool { return g.reach[b] == 2 }

// NumReachable returns the number of reachable blocks.
func (g *Graph) NumReachable() int {
	n := 0
	for _, r := range g.reach {
		if r == 2 {
			n++
		}
	}
	return n
}

// HasLoop reports whether the function contains any back edge.
func (g *Graph) HasLoop() bool { return g.loops }

// Path is a sequence of block indices from the entry block to a block
// terminated by a return.
type Path struct {
	Blocks []int
}

// EnumerateResult carries the enumerated paths plus whether the budget
// truncated the enumeration (§5.2: such functions get a default summary
// entry in addition to whatever was analyzed). The paths' blocks are
// carved from one array, each at cap == len, so appending to one path
// never writes into another.
type EnumerateResult struct {
	Paths     []Path
	Truncated bool
	// Canceled reports that the context expired mid-enumeration; the
	// result is the partial prefix produced so far and Truncated is set
	// (a canceled function degrades like a budget-truncated one).
	Canceled bool
}

// Enumerate lists entry-to-exit paths. Each back edge is taken at most
// once per path (the paper's "loops are unrolled at most once") and at
// most maxPaths paths are produced; maxPaths <= 0 means the default of 100
// (the paper's evaluation setting). Truncated is set only when the
// function has more than maxPaths paths.
func (g *Graph) Enumerate(maxPaths int) EnumerateResult {
	return g.EnumerateCtx(context.Background(), maxPaths)
}

// EnumerateObs is EnumerateCtx under observation: it wraps the walk in a
// PhaseEnumerate span labeled with the function and counts the paths
// produced (plus one paths_truncated tick when the budget — not the
// context — cut the walk short).
func (g *Graph) EnumerateObs(ctx context.Context, maxPaths int, o *obs.Obs) EnumerateResult {
	sp := o.Start(obs.PhaseEnumerate, g.Fn.Name)
	res := g.EnumerateCtx(ctx, maxPaths)
	sp.End()
	o.Count(obs.MPathsEnumerated, int64(len(res.Paths)))
	if res.Truncated && !res.Canceled {
		o.Count(obs.MPathsTruncated, 1)
	}
	return res
}

// enumState is the depth-first walk's state: the path being extended
// (cur), every finished path's blocks back to back (flat) and where each
// one ends (ends), and the per-edge count of back-edge traversals.
type enumState struct {
	ctx      context.Context
	blocks   []*ir.Block
	maxPaths int
	visited  int
	stop     bool // the budget or the context ended the walk
	canceled bool
	cur      []int
	flat     []int
	ends     []int
	used     []uint8
}

// Polling ctx.Err() on every visited block would dominate small
// functions; amortize to one check per checkEvery blocks.
const checkEvery = 256

// EnumerateCtx is Enumerate under a context: when ctx expires the walk
// stops promptly and the partial result is returned with Truncated and
// Canceled set, so the caller can fall back to a default summary instead
// of blocking on a pathological function.
func (g *Graph) EnumerateCtx(ctx context.Context, maxPaths int) EnumerateResult {
	if maxPaths <= 0 {
		maxPaths = 100
	}
	en := &g.en
	*en = enumState{
		ctx: ctx, blocks: g.Fn.Body().Blocks, maxPaths: maxPaths,
		cur: en.cur[:0], flat: en.flat[:0], ends: en.ends[:0], used: en.used,
	}
	if g.loops {
		en.used = grow(en.used, len(g.back))
		clear(en.used)
	}
	g.walk(0)
	// Freeze: one block array and one path array, each path carved at
	// cap == len.
	res := EnumerateResult{Truncated: en.stop, Canceled: en.canceled}
	if len(en.ends) > 0 {
		flat := make([]int, len(en.flat))
		copy(flat, en.flat)
		res.Paths = make([]Path, len(en.ends))
		lo := 0
		for i, hi := range en.ends {
			res.Paths[i].Blocks = flat[lo:hi:hi]
			lo = hi
		}
	}
	en.ctx, en.blocks = nil, nil
	return res
}

// walk extends the current path by block b. The walk stops at the
// (maxPaths+1)-th path: only then is the function known to exceed the
// budget.
func (g *Graph) walk(b int) {
	en := &g.en
	if en.stop {
		return
	}
	en.visited++
	if en.visited%checkEvery == 0 && en.ctx.Err() != nil {
		en.stop, en.canceled = true, true
		return
	}
	en.cur = append(en.cur, b)
	if en.blocks[b].Terminator().Op == ir.OpReturn {
		if len(en.ends) == en.maxPaths {
			en.stop = true
		} else {
			en.flat = append(en.flat, en.cur...)
			en.ends = append(en.ends, len(en.flat))
		}
	} else {
		for k, s := range g.Succ[b] {
			e := g.edge0[b] + k
			if g.loops && g.back[e] {
				if en.used[e] >= 1 {
					continue // unroll at most once
				}
				en.used[e]++
				g.walk(s)
				en.used[e]--
			} else {
				g.walk(s)
			}
			if en.stop {
				break
			}
		}
	}
	en.cur = en.cur[:len(en.cur)-1]
}
