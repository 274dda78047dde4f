// Package core orchestrates the complete RID analysis: predefined-summary
// installation, call-graph construction, the two-phase function
// classification of §5.2, and summary-based inter-procedural IPP checking
// in reverse topological order on a work-stealing scheduler (§5.3).
//
// The pipeline degrades rather than dies: every entry point takes a
// context.Context, a per-function wall-clock budget and per-query solver
// limits can be set in Options, and a panic inside any single function's
// analysis is recovered into a default summary for that function. Every
// such event is recorded in Result.Diagnostics, so callers always get
// partial results plus an exact account of what was degraded.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/callgraph"
	"repro/internal/ipp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// Options configures an analysis run. The zero value selects the paper's
// evaluation settings.
type Options struct {
	Exec         symexec.Config
	MaxCat2Conds int // §5.2 complexity gate; default 3
	// Workers is the number of workers of the two-level work-stealing
	// scheduler: default 1; any negative value means runtime.GOMAXPROCS(0).
	// SCCs are distributed in reverse topological order and, within a
	// function, subtrees of the path trie are stolen between workers. One
	// worker is simply the case nobody steals from: it runs each
	// function's subtrees in index order. Output is byte-identical at any
	// setting.
	Workers int
	// StealSeed seeds the per-worker victim-selection RNG of the
	// work-stealing scheduler. Any seed produces identical reports,
	// diagnostics, and stats — the determinism property test sweeps seeds
	// to prove it; the knob exists for that test and for reproducing a
	// particular steal interleaving. 0 is fine.
	StealSeed int64
	// AnalyzeAll disables the §5.2 selective analysis and summarizes every
	// function (ablation; expensive on large corpora).
	AnalyzeAll bool
	// FuncTimeout bounds the wall-clock time spent analyzing any single
	// function (symbolic execution plus IPP checking). When the budget
	// expires the function keeps its partial entries plus the §5.2
	// default entry and the run continues; 0 means unlimited.
	FuncTimeout time.Duration
	// SolverLimits bounds the work of each satisfiability query, for every
	// worker's solver in the run. Zero values select the solver's defaults.
	SolverLimits solver.Limits
	// Obs, when non-nil, observes the run: phase spans go to its tracer
	// and event counters to its registry. The pipeline always counts into
	// a registry — a private one is created when Obs carries none — and
	// Stats.Solver is read back from it, so solver totals are exact under
	// any worker count and at any snapshot instant.
	Obs *obs.Obs
	// CacheDir, when non-empty, enables the persistent summary store: a
	// disk-backed, content-addressed cache of per-function outcomes keyed
	// by Merkle-style digests over each function's canonical IR and its
	// callees' digests (internal/store). Functions whose digest matches a
	// stored entry skip Steps I–III and replay the stored summary,
	// reports, and deterministic diagnostics; everything else is analyzed
	// cold and saved back. Unreadable or version-skewed entries fall back
	// to cold analysis with a cache-invalid diagnostic. Ignored when
	// Provenance is set: evidence is never serialized, so `rid explain`
	// always re-derives.
	CacheDir string
	// CacheURL, when non-empty alongside CacheDir, layers a fleet summary
	// store (`rid storeserve`) behind the local one: local misses are
	// fetched from the fleet (validated, then written through to
	// CacheDir), and freshly computed entries are shipped back
	// write-behind. A dead, slow, or corrupt fleet store degrades the run
	// to the local tier with a run-level cache-remote diagnostic — it can
	// never change results and never hang the run. Ignored without
	// CacheDir.
	CacheURL string
	// Resident, when non-nil alongside CacheDir, is a process-lifetime
	// tier of decoded store entries in front of the store: a function
	// resident at its current digest is replayed from memory, skipping
	// the read, checksum and decode. Hits and misses count exactly as
	// they would against the disk alone. Long-lived processes share one
	// across runs over the same CacheDir; nil reads the disk every time.
	Resident *store.Resident
	// Provenance records, per report, the full derivation as an
	// ipp.Evidence object (CFG paths with positions, constraint history,
	// applied callee entries, the deciding solver query) and then runs
	// the witness-replay post-pass, annotating each report
	// confirmed-by-replay / replay-diverged / not-replayable. Off by
	// default; the disabled path does no extra work and no extra
	// allocations (TestProvenanceOffAllocFree).
	Provenance bool

	// fieldKinds and specDigest are derived from the run's specs inside
	// analyzeWithDB: the field→resource-kind map tags reports with their
	// resource kind, and the spec fingerprint keys the summary store so
	// caches never cross-contaminate between spec packs.
	fieldKinds map[string]string
	specDigest string
}

// withDefaults normalizes each option independently: an explicitly set
// field is never overwritten just because a sibling field was left zero.
func (o Options) withDefaults() Options {
	if o.MaxCat2Conds == 0 {
		o.MaxCat2Conds = 3
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Exec.MaxPaths == 0 {
		o.Exec.MaxPaths = 100
	}
	if o.Exec.MaxSubcases == 0 {
		o.Exec.MaxSubcases = 10
	}
	return o
}

// Stats aggregates run metrics.
type Stats struct {
	FuncsTotal      int
	FuncsAnalyzed   int
	PathsEnumerated int
	ClassifyTime    time.Duration
	AnalyzeTime     time.Duration
	Solver          solver.Stats

	// Degradation counters (each function is counted at most once per
	// category; see Result.Diagnostics for the per-function detail).
	FuncsTruncated int // path or sub-case budget hit
	FuncsTimedOut  int // per-function FuncTimeout expired
	FuncsPanicked  int // panic recovered into a default summary
}

// Result is the outcome of Analyze.
type Result struct {
	Reports        []*ipp.Report
	DB             *summary.DB
	Classification *Classification
	Stats          Stats
	// Diagnostics records every degradation event of the run in
	// deterministic order: budget truncations, solver give-ups, function
	// timeouts, recovered panics, and run cancellation.
	Diagnostics []Diagnostic
}

// ReportsByFunction returns the reports grouped and sorted by function
// name, for deterministic output.
func (r *Result) ReportsByFunction() []*ipp.Report {
	out := make([]*ipp.Report, len(r.Reports))
	copy(out, r.Reports)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Refcount.Key() < out[j].Refcount.Key()
	})
	return out
}

// Analyze runs RID over prog with the given API specifications. When ctx
// is canceled (or its deadline passes) the run stops promptly at the next
// function or path boundary and returns the partial result, with a
// DegradeCanceled diagnostic recording how far it got. The run builds its
// expressions in a table of its own; the result's summaries and reports
// keep what they reference, and the rest is dropped with the run.
func Analyze(ctx context.Context, prog *ir.Program, specs *spec.Specs, opts Options) *Result {
	opts = opts.withDefaults()
	db := summary.NewDB()
	if specs != nil {
		specs.ApplyTo(db)
	}
	return analyzeWithDB(ctx, prog, specs, sym.NewTable(), db, opts)
}

// analyzeWithDB runs the pipeline against an existing summary database
// (multi-file mode carries summaries across calls), building every
// expression in syms: the executors, Step III's default entries and the
// store's decoded entries all go there. specs is used only by
// the provenance replay post-pass (extern callees execute their predefined
// summaries); nil is fine without Options.Provenance.
func analyzeWithDB(ctx context.Context, prog *ir.Program, specs *spec.Specs, syms *sym.Table, db *summary.DB, opts Options) *Result {
	// Every run counts into a registry (a private one when the caller did
	// not attach an observer) so Stats.Solver can be read back as the
	// counter delta across this call — exact under Workers>1, and immune
	// to the old snapshot-before-diagnostics ordering hazard. Multi-file
	// runs call this repeatedly against a shared registry; the delta keeps
	// per-call stats additive.
	opts.Obs = opts.Obs.EnsureRegistry()
	opts.Exec.Obs = opts.Obs
	if opts.Provenance {
		opts.Exec.Provenance = true
	}
	if specs != nil {
		opts.fieldKinds = specs.FieldKinds()
		opts.specDigest = specs.Fingerprint()
	}
	reg := opts.Obs.Registry()
	solverBase := solverCounters(reg)
	runSpan := opts.Obs.Start(obs.PhaseRun, "")
	lowered0 := countLowered(prog)

	cgSpan := opts.Obs.Start(obs.PhaseCallgraph, "")
	g := callgraph.Build(prog)
	cgSpan.End()

	t0 := time.Now()
	classifySpan := opts.Obs.Start(obs.PhaseClassify, "")
	cl := classify(g, db, opts.MaxCat2Conds)
	classifySpan.End()
	classifyTime := time.Since(t0)

	// Which functions get summarized?
	toAnalyze := func(fn string) bool {
		if s := db.Get(fn); s != nil && s.Predefined {
			return false // predefined summaries are never re-derived
		}
		if opts.AnalyzeAll {
			return true
		}
		switch cl.Category[fn] {
		case CatRefcount:
			return true
		case CatAffecting:
			return cl.Analyzed[fn]
		}
		return false
	}

	res := &Result{DB: db, Classification: cl}
	res.Stats.FuncsTotal = len(g.Nodes)
	res.Stats.ClassifyTime = classifyTime

	// The persistent summary store replays whole per-function outcomes, so
	// it engages after classification (always cheap, always fresh) and
	// before the summarization sweep. Provenance runs bypass it: evidence
	// is never serialized, and explain must observe a real derivation.
	var cache *cacheState
	if opts.CacheDir != "" && !opts.Provenance {
		cache = openCache(opts, syms, g, db, toAnalyze, res)
	}

	t1 := time.Now()
	analyzeSteal(ctx, prog, g, syms, db, toAnalyze, cache, opts, res)
	res.Stats.AnalyzeTime = time.Since(t1)
	// Drain the fleet write-behind queue and surface any remote
	// degradation before diagnostics are sorted into their final order.
	cache.finish(res)

	if err := ctx.Err(); err != nil {
		res.Diagnostics = append(res.Diagnostics, Diagnostic{
			Kind: DegradeCanceled,
			Cause: fmt.Sprintf("%v; %d of %d functions analyzed",
				err, res.Stats.FuncsAnalyzed, res.Stats.FuncsTotal),
		})
	}
	sortDiagnostics(res.Diagnostics)
	sortReports(res)
	if opts.Provenance {
		// Replay runs after sorting, sequentially, with seeds derived
		// from function names only — verdicts are identical at any
		// Workers setting (TestReplayDeterministicAcrossWorkers).
		replayReports(ctx, prog, specs, res, opts.Obs)
	}
	// Read the solver totals back from the registry only now, after every
	// worker has exited and all diagnostics are finalized.
	res.Stats.Solver = solverCounters(reg).Sub(solverBase)
	opts.Obs.Count(obs.MFuncsLowered, countLowered(prog)-lowered0)
	runSpan.End()
	return res
}

// countLowered counts prog's functions whose body has been lowered. Its
// change across a run is the bodies that run lowered; a concurrent run
// over shared functions (rid serve's frontend memo) may lower some first.
func countLowered(prog *ir.Program) int64 {
	var n int64
	for _, f := range prog.Funcs {
		if f.Lowered() {
			n++
		}
	}
	return n
}

// solverCounters reads the registry's solver counters as a solver.Stats.
func solverCounters(r *obs.Registry) solver.Stats {
	return solver.Stats{
		Queries:   int(r.Counter(obs.MSolverQueries)),
		CacheHits: int(r.Counter(obs.MSolverCacheHits)),
		Sat:       int(r.Counter(obs.MSolverSat)),
		Unsat:     int(r.Counter(obs.MSolverUnsat)),
		GaveUp:    int(r.Counter(obs.MSolverGaveUp)),
	}
}

// sortReports orders reports by function then refcount for deterministic
// output.
func sortReports(res *Result) {
	sort.Slice(res.Reports, func(i, j int) bool {
		a, b := res.Reports[i], res.Reports[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		return a.Refcount.Key() < b.Refcount.Key()
	})
}

// funcOutcome is everything analyzing one function produced, including
// its degradation record, so fresh analyses and summary-store replays
// merge into the result identically.
type funcOutcome struct {
	reports  []*ipp.Report
	sum      *summary.Summary
	paths    int
	diags    []Diagnostic
	trunc    bool // a path or sub-case budget was hit
	timedOut bool // the per-function budget expired
	panicked bool // a panic was recovered
	canceled bool // the run context (not the per-function budget) expired
}

// absorb folds one function's outcome into the result. Callers must hold
// the scheduler's result lock.
func (res *Result) absorb(out funcOutcome) {
	res.Reports = append(res.Reports, out.reports...)
	res.Diagnostics = append(res.Diagnostics, out.diags...)
	res.Stats.FuncsAnalyzed++
	res.Stats.PathsEnumerated += out.paths
	if out.trunc {
		res.Stats.FuncsTruncated++
	}
	if out.timedOut {
		res.Stats.FuncsTimedOut++
	}
	if out.panicked {
		res.Stats.FuncsPanicked++
	}
}
