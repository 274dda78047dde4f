package symexec

import (
	"context"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/summary"
)

// job is one function's Step I+II state: the enumerated paths, the
// per-path flags the trie walk sets, and the site numbering its
// occurrence counters index.
type job struct {
	ex    *Executor
	ctx   context.Context
	fn    *ir.Func
	paths []cfg.Path
	res   Result
	// pathFlags[i] records whether path i was cut by the sub-case budget
	// (pathTruncated) or by the context (pathCanceled).
	pathFlags []int
	// siteBase[b] is the site ID of block b's first instruction: sites are
	// numbered densely in block order, so in's site is siteBase[b] plus
	// its index in the block.
	siteBase []int
	numSites int
}

// frozenEntry is a finalized entry with the path it came from; execute
// points the function's PathEntry values into the array of them.
type frozenEntry struct {
	summary.Entry
	path int
	prov *EntryProv
}

const (
	pathTruncated = 1 << iota
	pathCanceled
)

// Summarize runs Steps I and II on fn: enumerate paths, symbolically
// execute them over the path trie on the executor's solver, and return
// the per-path entries in path order (Step III — consistency checking and
// merging — lives in internal/ipp).
//
// ctx bounds the work: when it expires the executor stops at the next
// block boundary and returns whatever it has, with Canceled and
// Truncated set so the function degrades to a partial summary plus the
// §5.2 default entry rather than blocking the run.
func (ex *Executor) Summarize(ctx context.Context, fn *ir.Func) Result {
	ex.cfg.Obs.Count(obs.MFuncsAnalyzed, 1)
	if ex.cfg.OnFunction != nil {
		ex.cfg.OnFunction(fn.Name)
	}
	return ex.execute(ctx, fn, cfg.Paths(ctx, fn, ex.cfg.MaxPaths, ex.cfg.Obs)).res
}

// execute walks the whole trie of enum's paths on the executor's solver
// and returns the job, its result filled in: the entries in path order,
// the flags' verdicts and the give-up count. The job's arrays are
// allocated at their exact sizes.
func (ex *Executor) execute(ctx context.Context, fn *ir.Func, enum cfg.EnumerateResult) *job {
	j := &job{ex: ex, ctx: ctx, fn: fn, paths: enum.Paths}
	res := &j.res
	*res = Result{
		Fn:             fn,
		Syms:           ex.syms,
		NumPaths:       len(enum.Paths),
		Truncated:      enum.Truncated,
		TruncatedPaths: enum.Truncated && !enum.Canceled,
		Canceled:       enum.Canceled,
	}
	if ex.cfg.Provenance {
		res.Paths = enum.Paths
	}
	// siteBase and pathFlags share one array.
	blocks := fn.Body().Blocks
	nb, np := len(blocks), len(enum.Paths)
	ints := make([]int, nb+np)
	j.siteBase, j.pathFlags = ints[:nb:nb], ints[nb:]
	for i, b := range blocks {
		j.siteBase[i] = j.numSites
		j.numSites += len(b.Instrs)
	}

	span := ex.cfg.Obs.Start(obs.PhaseExec, fn.Name)
	var entries []frozenEntry
	if np > 0 {
		pr := getPathRun(j, ex.slv)
		init := getState()
		for _, p := range fn.Params {
			init.vmap[p] = pr.syms.Arg(p)
		}
		pr.walk(0, np, 0, append(pr.getBuf(), init), false)
		entries = pr.freezeEntries()
		res.GaveUp = pr.gaveUp
		putPathRun(pr)
	}
	for _, f := range j.pathFlags {
		if f&pathTruncated != 0 {
			res.TruncatedSubcases = true
		}
		if f&pathCanceled != 0 {
			res.Canceled = true
		}
	}
	if len(entries) > 0 {
		res.Entries = make([]PathEntry, len(entries))
		for k := range entries {
			fe := &entries[k]
			res.Entries[k] = PathEntry{Entry: &fe.Entry, PathIndex: fe.path, Prov: fe.prov}
		}
	}
	if res.TruncatedSubcases || res.Canceled {
		res.Truncated = true
	}
	span.End()
	ex.cfg.Obs.Count(obs.MSummaryEntries, int64(len(res.Entries)))
	return j
}
