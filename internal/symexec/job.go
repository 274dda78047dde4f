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
// per-path tasks — the seam the work-stealing scheduler schedules at.
// Lifecycle:
//
//	j := ex.Prepare(ctx, fn)        // Step I: enumerate paths (owner only)
//	for i := range j.NumTasks() {   // Step II: any worker, any order,
//	    j.RunTask(i, someSolver)    //   distinct i safe concurrently
//	}
//	res := j.Finish()               // merge in path order (owner only)
//
// Results are written into per-task slots, so RunTask calls for distinct
// indices never contend, and Finish produces entries in path order
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
	outs []pathOut

	siteIDs  map[*ir.Instr]int
	numSites int
	execSpan obs.Span
}

// pathOut is the result slot of one path task.
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
	for _, b := range fn.Blocks {
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
	j.execSpan = ex.cfg.Obs.Start(obs.PhaseExec, fn.Name)
	return j
}

// NumTasks returns the number of path tasks.
func (j *Job) NumTasks() int { return len(j.enum.Paths) }

// RunTask symbolically executes path i using slv for satisfiability.
// Safe to call concurrently for distinct i; calling twice for the same i
// is a bug. The solver decides feasibility pruning and entry feasibility
// for this path only, so any solver with the job's limits produces the
// same verdicts (a shared cache changes cost, never answers).
func (j *Job) RunTask(i int, slv *solver.Solver) {
	if j.ctx.Err() != nil {
		j.outs[i].canceled = true
		return
	}
	pr := getPathRun(j, slv)
	o := &j.outs[i]
	o.entries, o.provs, o.truncated, o.canceled = pr.execPath(j.ctx, j.fn, j.enum.Paths[i])
	putPathRun(pr)
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
