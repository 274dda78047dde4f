// Package cfg provides control-flow-graph utilities over the abstract IR:
// successor/predecessor maps, back-edge detection, reachability, and the
// entry-to-exit path enumeration of analysis Step I (§4.2), with loops
// unrolled at most once and a configurable path budget.
package cfg

import (
	"context"

	"repro/internal/ir"
	"repro/internal/obs"
)

// Graph is the CFG view of a function.
type Graph struct {
	Fn    *ir.Func
	Succ  [][]int
	Pred  [][]int
	back  map[[2]int]bool // edges (from, to) that close a loop; nil when loop-free
	reach []uint8         // DFS state: 0 unvisited (unreachable), 2 done (reachable)
}

// New builds the CFG for fn. Successor and predecessor lists are carved
// out of two shared backing arrays sized by a counting pass, so graph
// construction costs a fixed number of allocations regardless of block
// count — this runs once per (function, path-enumeration) and showed up
// in allocation profiles when it allocated per block.
func New(fn *ir.Func) *Graph {
	blocks := fn.Body().Blocks
	n := len(blocks)
	g := &Graph{
		Fn:   fn,
		Succ: make([][]int, n),
		Pred: make([][]int, n),
	}
	// Pass 1: count edges and per-block indegrees.
	total := 0
	indeg := make([]int, n)
	for _, b := range blocks {
		k := b.NumSuccs()
		total += k
		var two [2]int
		for _, s := range b.AppendSuccs(two[:0]) {
			indeg[s]++
		}
	}
	// Pass 2: carve Succ lists out of one backing array.
	succBack := make([]int, 0, total)
	for _, b := range blocks {
		lo := len(succBack)
		succBack = b.AppendSuccs(succBack)
		g.Succ[b.Index] = succBack[lo:len(succBack):len(succBack)]
	}
	// Pass 3: carve Pred lists at their final sizes and fill.
	predBack := make([]int, total)
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
	return g
}

// findBackEdges marks edges whose target is on the current DFS stack.
// The DFS visits exactly the blocks reachable from the entry, so its
// final visitation state doubles as the reachability set — no separate
// traversal or bitmap.
func (g *Graph) findBackEdges() {
	n := len(g.Succ)
	g.reach = make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	state := g.reach
	// Iterative DFS to avoid recursion limits on generated functions.
	// Each node is pushed at most once, so the stack never exceeds n.
	type frame struct {
		node int
		next int
	}
	stack := make([]frame, 0, n)
	push := func(v int) {
		state[v] = 1
		stack = append(stack, frame{v, 0})
	}
	push(0)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Succ[f.node]) {
			s := g.Succ[f.node][f.next]
			f.next++
			switch state[s] {
			case 0:
				push(s)
			case 1:
				if g.back == nil {
					g.back = make(map[[2]int]bool) // most functions are loop-free
				}
				g.back[[2]int{f.node, s}] = true
			}
			continue
		}
		state[f.node] = 2
		stack = stack[:len(stack)-1]
	}
}

// IsBackEdge reports whether from→to closes a loop.
func (g *Graph) IsBackEdge(from, to int) bool { return g.back[[2]int{from, to}] }

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
func (g *Graph) HasLoop() bool { return len(g.back) > 0 }

// Path is a sequence of block indices from the entry block to a block
// terminated by a return.
type Path struct {
	Blocks []int
}

// EnumerateResult carries the enumerated paths plus whether the budget
// truncated the enumeration (§5.2: such functions get a default summary
// entry in addition to whatever was analyzed).
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
// (the paper's evaluation setting).
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

// EnumerateCtx is Enumerate under a context: when ctx expires the walk
// stops promptly and the partial result is returned with Truncated and
// Canceled set, so the caller can fall back to a default summary instead
// of blocking on a pathological function.
func (g *Graph) EnumerateCtx(ctx context.Context, maxPaths int) EnumerateResult {
	if maxPaths <= 0 {
		maxPaths = 100
	}
	var res EnumerateResult
	// Polling ctx.Err() on every visited block would dominate small
	// functions; amortize to one check per checkEvery blocks.
	const checkEvery = 256
	visited := 0
	// DFS with explicit stack of (block, taken-back-edges) is awkward to
	// copy cheaply; use recursion with shared state and an on-path slice.
	var cur []int
	var usedBack map[[2]int]int // lazily allocated: most functions are loop-free
	if len(g.back) > 0 {
		usedBack = make(map[[2]int]int, len(g.back))
	}
	blocks := g.Fn.Body().Blocks
	var walk func(b int)
	walk = func(b int) {
		if res.Canceled {
			return
		}
		visited++
		if visited%checkEvery == 0 && ctx.Err() != nil {
			res.Canceled = true
			res.Truncated = true
			return
		}
		if len(res.Paths) >= maxPaths {
			res.Truncated = true
			return
		}
		cur = append(cur, b)
		defer func() { cur = cur[:len(cur)-1] }()
		t := blocks[b].Terminator()
		if t.Op == ir.OpReturn {
			p := Path{Blocks: make([]int, len(cur))}
			copy(p.Blocks, cur)
			res.Paths = append(res.Paths, p)
			return
		}
		for _, s := range g.Succ[b] {
			e := [2]int{b, s}
			if g.back[e] {
				if usedBack[e] >= 1 {
					continue // unroll at most once
				}
				usedBack[e]++
				walk(s)
				usedBack[e]--
			} else {
				walk(s)
			}
			if len(res.Paths) >= maxPaths {
				res.Truncated = true
				return
			}
		}
	}
	walk(0)
	return res
}

// Instrs returns the straight-line instruction sequence of the path,
// including each block's terminator (the symbolic executor interprets
// branch terminators by looking at the next block in the path).
func (p Path) Instrs(fn *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	blocks := fn.Body().Blocks
	for _, b := range p.Blocks {
		out = append(out, blocks[b].Instrs...)
	}
	return out
}
