package symexec

import (
	"context"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/sym"
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
// are written into per-path slots, so RunTask calls for distinct indices
// never contend, and Finish produces entries in path order
// regardless of which workers ran which tasks in which interleaving —
// that order independence is what makes reports byte-identical at any
// Workers setting. Summarize is implemented on this same seam, so direct
// callers and the work-stealing scheduler share one semantics.
type Job struct {
	ex   *Executor
	ctx  context.Context
	fn   *ir.Func
	enum cfg.EnumerateResult
	res  Result
	outs []pathOut // one per path
	// bounds[t] and bounds[t+1] delimit the paths of task t.
	bounds []int

	siteIDs  map[*ir.Instr]int
	numSites int
	execSpan obs.Span
}

// pathOut is the result slot of one path.
type pathOut struct {
	entries   []*summary.Entry
	provs     []*EntryProv
	truncated bool
	canceled  bool
}

// Prepare runs Step I for fn and returns the job whose tasks execute the
// enumerated paths. Must be called by the function's owner; the counters,
// hooks, and enumerate span fire here exactly as Summarize fired them.
func (ex *Executor) Prepare(ctx context.Context, fn *ir.Func) *Job {
	ex.cfg.Obs.Count(obs.MFuncsAnalyzed, 1)
	if ex.cfg.OnFunction != nil {
		ex.cfg.OnFunction(fn.Name)
	}
	j := &Job{ex: ex, ctx: ctx, fn: fn}
	j.siteIDs = make(map[*ir.Instr]int)
	id := 0
	for _, b := range fn.Body().Blocks {
		for _, in := range b.Instrs {
			j.siteIDs[in] = id
			id++
		}
	}
	j.numSites = id
	g := cfg.New(fn)
	j.enum = g.EnumerateObs(ctx, ex.cfg.MaxPaths, ex.cfg.Obs)
	j.res = Result{
		Fn:             fn,
		NumPaths:       len(j.enum.Paths),
		Truncated:      j.enum.Truncated,
		TruncatedPaths: j.enum.Truncated && !j.enum.Canceled,
		Canceled:       j.enum.Canceled,
	}
	if ex.cfg.Provenance {
		j.res.Paths = j.enum.Paths
	}
	j.outs = make([]pathOut, len(j.enum.Paths))
	j.bounds = subtrees(j.enum.Paths)
	j.execSpan = ex.cfg.Obs.Start(obs.PhaseExec, fn.Name)
	return j
}

// subtrees returns the task boundaries for paths in enumeration order:
// one task per child of the first block at which the paths diverge. The
// enumeration is depth-first, so each child's paths are contiguous; and
// since only a return block ends a path and it has no successors, no path
// is a prefix of another, so the first and last paths differ before
// either ends.
func subtrees(paths []cfg.Path) []int {
	n := len(paths)
	switch n {
	case 0:
		return []int{0}
	case 1:
		return []int{0, 1}
	}
	first, last := paths[0].Blocks, paths[n-1].Blocks
	d := 0
	for first[d] == last[d] {
		d++
	}
	bounds := []int{0}
	for i := 1; i < n; i++ {
		if paths[i].Blocks[d] != paths[i-1].Blocks[d] {
			bounds = append(bounds, i)
		}
	}
	return append(bounds, n)
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
			j.outs[k].canceled = true
		}
		return 0
	}
	pr := getPathRun(j, slv)
	init := getState()
	for _, p := range j.fn.Params {
		init.vmap[p] = sym.Arg(p)
	}
	pr.walk(lo, hi, 0, append(pr.getBuf(), init), false)
	gaveUp = pr.gaveUp
	putPathRun(pr)
	return gaveUp
}

// Finish merges the task results in path order and returns the function's
// Result. Must be called once, after every task has completed, by a
// single goroutine.
func (j *Job) Finish() Result {
	res := j.res
	for i := range j.outs {
		o := &j.outs[i]
		if o.truncated {
			res.TruncatedSubcases = true
		}
		if o.canceled {
			res.Canceled = true
		}
		for k, e := range o.entries {
			pe := PathEntry{Entry: e, PathIndex: i}
			if o.provs != nil {
				pe.Prov = o.provs[k]
			}
			res.Entries = append(res.Entries, pe)
		}
	}
	if res.TruncatedSubcases || res.Canceled {
		res.Truncated = true
	}
	j.execSpan.End()
	j.ex.cfg.Obs.Count(obs.MSummaryEntries, int64(len(res.Entries)))
	return res
}
