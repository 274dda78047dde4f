package symexec

import (
	"context"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/summary"
)

// Job is one function's Step I+II work split into independently runnable
// subtree tasks — the seam the work-stealing scheduler schedules at.
// Lifecycle:
//
//	j := ex.Prepare(ctx, fn)        // Step I: enumerate paths (owner only)
//	for i := range j.NumTasks() {   // Step II: any worker, any order,
//	    j.RunTask(i, someSolver)    //   distinct i safe concurrently
//	}
//	res := j.Finish()               // merge in path order (owner only)
//
// A task is one subtree of the path trie: the contiguous range of paths
// below one child of the trie's first branching block, executed from the
// entry (so the short stem above that block runs once per task). Results
// are written into the task's own slot and its paths' flags, so RunTask
// calls for distinct indices never contend, and Finish produces entries
// in path order
// regardless of which workers ran which tasks in which interleaving —
// that order independence is what makes reports byte-identical at any
// Workers setting. Summarize is implemented on this same seam, so direct
// callers and the work-stealing scheduler share one semantics.
type Job struct {
	ex    *Executor
	ctx   context.Context
	fn    *ir.Func
	paths []cfg.Path
	res   Result
	outs  []taskOut // one per task
	// pathFlags[i] records whether path i was cut by the sub-case budget
	// (pathTruncated) or by the context (pathCanceled).
	pathFlags []int
	// bounds[t] and bounds[t+1] delimit the paths of task t.
	bounds []int
	// siteBase[b] is the site ID of block b's first instruction: sites are
	// numbered densely in block order, so in's site is siteBase[b] plus
	// its index in the block.
	siteBase []int
	numSites int
	execSpan obs.Span
}

// taskOut is the frozen result of one task: its paths' entries in path
// order, in an array of exactly their number.
type taskOut struct {
	entries []frozenEntry
}

// frozenEntry is a finalized entry with the path it came from; Finish
// points the function's PathEntry values into the task arrays.
type frozenEntry struct {
	summary.Entry
	path int
	prov *EntryProv
}

const (
	pathTruncated = 1 << iota
	pathCanceled
)

// Prepare runs Step I for fn and returns the job whose tasks execute the
// enumerated paths. Must be called by the function's owner; the counters,
// hooks, and enumerate span fire here exactly as Summarize fired them.
// The job's arrays are allocated at their exact sizes, and the graph
// Step I builds is recycled before Prepare returns.
func (ex *Executor) Prepare(ctx context.Context, fn *ir.Func) *Job {
	ex.cfg.Obs.Count(obs.MFuncsAnalyzed, 1)
	if ex.cfg.OnFunction != nil {
		ex.cfg.OnFunction(fn.Name)
	}
	j := &Job{ex: ex, ctx: ctx, fn: fn}
	enum := cfg.Paths(ctx, fn, ex.cfg.MaxPaths, ex.cfg.Obs)
	j.paths = enum.Paths
	j.res = Result{
		Fn:             fn,
		Syms:           ex.syms,
		NumPaths:       len(enum.Paths),
		Truncated:      enum.Truncated,
		TruncatedPaths: enum.Truncated && !enum.Canceled,
		Canceled:       enum.Canceled,
	}
	if ex.cfg.Provenance {
		j.res.Paths = enum.Paths
	}
	// siteBase, bounds and pathFlags share one array.
	blocks := fn.Body().Blocks
	nb, np, d := len(blocks), len(enum.Paths), divergence(enum.Paths)
	ints := make([]int, nb+np+numSubtrees(enum.Paths, d)+1)
	j.siteBase, j.pathFlags = ints[:nb:nb], ints[nb:nb+np:nb+np]
	j.bounds = subtrees(enum.Paths, d, ints[nb+np:nb+np])
	for i, b := range blocks {
		j.siteBase[i] = j.numSites
		j.numSites += len(b.Instrs)
	}
	j.outs = make([]taskOut, j.NumTasks())
	j.execSpan = ex.cfg.Obs.Start(obs.PhaseExec, fn.Name)
	return j
}

// divergence returns the depth of the first block at which paths differ,
// or -1 when there are fewer than two. Step I enumerates depth-first, so
// it is where the first and the last path part; since only a return block
// ends a path and it has no successors, no path is a prefix of another,
// and the two differ before either ends.
func divergence(paths []cfg.Path) int {
	n := len(paths)
	if n < 2 {
		return -1
	}
	first, last := paths[0].Blocks, paths[n-1].Blocks
	d := 0
	for first[d] == last[d] {
		d++
	}
	return d
}

// numSubtrees returns the number of tasks subtrees makes.
func numSubtrees(paths []cfg.Path, d int) int {
	if d < 0 {
		return min(len(paths), 1)
	}
	n := 1
	for i := 1; i < len(paths); i++ {
		if paths[i].Blocks[d] != paths[i-1].Blocks[d] {
			n++
		}
	}
	return n
}

// subtrees appends to bounds the task boundaries for paths in enumeration
// order: one task per child of the block at depth d, where the paths
// diverge (divergence). The enumeration is depth-first, so each child's
// paths are contiguous.
func subtrees(paths []cfg.Path, d int, bounds []int) []int {
	bounds = append(bounds, 0)
	if d >= 0 {
		for i := 1; i < len(paths); i++ {
			if paths[i].Blocks[d] != paths[i-1].Blocks[d] {
				bounds = append(bounds, i)
			}
		}
	}
	if len(paths) > 0 {
		bounds = append(bounds, len(paths))
	}
	return bounds
}

// NumTasks returns the number of subtree tasks; it is at most the number
// of paths.
func (j *Job) NumTasks() int { return len(j.bounds) - 1 }

// RunTask symbolically executes the paths of subtree i using slv for
// satisfiability, and returns the number of solver give-ups, each query
// counted once for every path that shares it (what executing those paths
// one by one would count). Safe to call concurrently for distinct i;
// calling twice for the same i is a bug. The solver decides feasibility
// pruning and entry feasibility for these paths only, so any solver with
// the job's limits produces the same verdicts (a shared cache changes
// cost, never answers).
func (j *Job) RunTask(i int, slv *solver.Solver) (gaveUp int) {
	lo, hi := j.bounds[i], j.bounds[i+1]
	if j.ctx.Err() != nil {
		for k := lo; k < hi; k++ {
			j.pathFlags[k] |= pathCanceled
		}
		return 0
	}
	pr := getPathRun(j, slv)
	init := getState()
	for _, p := range j.fn.Params {
		init.vmap[p] = pr.syms.Arg(p)
	}
	pr.walk(lo, hi, 0, append(pr.getBuf(), init), false)
	j.outs[i].entries = pr.freezeEntries()
	gaveUp = pr.gaveUp
	putPathRun(pr)
	return gaveUp
}

// Finish merges the task results in path order and returns the function's
// Result. Must be called once, after every task has completed, by a
// single goroutine.
func (j *Job) Finish() Result {
	res := j.res
	for _, f := range j.pathFlags {
		if f&pathTruncated != 0 {
			res.TruncatedSubcases = true
		}
		if f&pathCanceled != 0 {
			res.Canceled = true
		}
	}
	// Tasks cover consecutive path ranges, so their entries concatenate
	// in path order.
	n := 0
	for t := range j.outs {
		n += len(j.outs[t].entries)
	}
	if n > 0 {
		res.Entries = make([]PathEntry, 0, n)
		for t := range j.outs {
			for k := range j.outs[t].entries {
				fe := &j.outs[t].entries[k]
				res.Entries = append(res.Entries, PathEntry{Entry: &fe.Entry, PathIndex: fe.path, Prov: fe.prov})
			}
		}
	}
	if res.TruncatedSubcases || res.Canceled {
		res.Truncated = true
	}
	j.execSpan.End()
	j.ex.cfg.Obs.Count(obs.MSummaryEntries, int64(len(res.Entries)))
	return res
}
