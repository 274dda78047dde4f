// SCC scheduler (§5.3): a function is summarized only after its callees,
// so an SCC of the call graph becomes ready when every callee SCC has
// completed. Workers take ready SCCs from one queue and analyze each
// member function whole — Steps I-III — on their own solver and executor.
// The run's one solver cache is shared, so a constraint set solved by any
// worker is a hit for every other.
//
// Determinism: a function's analysis reads only its callees' summaries,
// which are complete before it starts, and one worker analyzes an SCC's
// members in sorted order. The shared cache changes cost, never answers,
// and a hit counts its verdict and give-up flag as the solve that stored
// it did. So reports, diagnostics and stats are byte-identical at any
// Workers setting.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/ipp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// worker is one worker's private state: its solver (shared query cache,
// private counters), the executor that runs Steps I and II on it, and its
// utilization record.
type worker struct {
	slv *solver.Solver
	ex  *symexec.Executor
	wc  *obs.WorkerCounters
}

// sccRun is the shared state of one scheduling run.
type sccRun struct {
	ctx       context.Context
	prog      *ir.Program
	syms      *sym.Table
	db        *summary.DB
	toAnalyze func(string) bool
	cache     *cacheState
	opts      Options
	res       *Result

	sccs [][]string

	mu         sync.Mutex // guards waiting/dependents/ready/pending and res
	readied    *sync.Cond // on mu: an SCC became ready or the last completed
	waiting    []int
	dependents [][]int
	ready      []int
	pending    int
}

// analyzeSCCs summarizes every SCC of g in reverse topological order on
// opts.Workers workers.
func analyzeSCCs(ctx context.Context, prog *ir.Program, g *callgraph.Graph, syms *sym.Table, db *summary.DB, toAnalyze func(string) bool, cache *cacheState, opts Options, res *Result) {
	sccs := g.SCCs()
	n := len(sccs)
	s := &sccRun{
		ctx: ctx, prog: prog, syms: syms, db: db, toAnalyze: toAnalyze,
		cache: cache, opts: opts, res: res,
		sccs: sccs, pending: n,
	}
	s.readied = sync.NewCond(&s.mu)
	// dependents[d] lists the SCCs waiting on d, carved out of one flat
	// backing array sized by a first counting pass.
	s.waiting = make([]int, n)
	counts := make([]int, n)
	edges := 0
	for i := 0; i < n; i++ {
		s.waiting[i] = len(g.SCCSuccs(i))
		edges += s.waiting[i]
		for _, dep := range g.SCCSuccs(i) {
			counts[dep]++
		}
	}
	flat := make([]int, edges)
	s.dependents = make([][]int, n)
	for d, c := range counts {
		s.dependents[d], flat = flat[:0:c], flat[c:]
	}
	for i := 0; i < n; i++ {
		for _, dep := range g.SCCSuccs(i) {
			s.dependents[dep] = append(s.dependents[dep], i)
		}
	}
	for i := 0; i < n; i++ {
		if s.waiting[i] == 0 {
			s.ready = append(s.ready, i)
		}
	}

	// One cache for the whole run: every worker shares solved sub-results,
	// so a constraint set solved anywhere in the sweep is a hit everywhere
	// else.
	scache := solver.NewCache()

	reg := opts.Obs.Registry()
	var wg sync.WaitGroup
	wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go func(id int) {
			defer wg.Done()
			w := &worker{
				slv: solver.NewWithCache(opts.SolverLimits, scache),
				wc:  reg.Worker(id),
			}
			w.slv.SetObs(opts.Obs)
			w.ex = symexec.New(syms, db, w.slv, opts.Exec)
			for {
				i, ok := s.take()
				if !ok {
					return
				}
				s.driveSCC(i, w)
			}
		}(i)
	}
	wg.Wait()
}

// take pops a ready SCC, waiting while none is ready but some are still
// pending. It reports false once every SCC has completed.
func (s *sccRun) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ready) == 0 {
		if s.pending == 0 {
			return 0, false
		}
		s.readied.Wait()
	}
	i := s.ready[len(s.ready)-1]
	s.ready = s.ready[:len(s.ready)-1]
	return i, true
}

// complete marks SCC i done, readies its dependents, and wakes the
// waiting workers.
func (s *sccRun) complete(i int) {
	s.mu.Lock()
	for _, d := range s.dependents[i] {
		s.waiting[d]--
		if s.waiting[d] == 0 {
			s.ready = append(s.ready, d)
		}
	}
	s.pending--
	s.mu.Unlock()
	s.readied.Broadcast()
}

// driveSCC analyzes the members of SCC i in their sorted order (so cache
// load/save interleaving and sibling-summary visibility never depend on
// the schedule), then completes the SCC. After
// cancellation it still completes, so dependents unblock and the run
// drains promptly.
func (s *sccRun) driveSCC(i int, w *worker) {
	if s.ctx.Err() == nil {
		for _, fn := range s.sccs[i] {
			if !s.toAnalyze(fn) {
				continue
			}
			if s.cache != nil {
				out, hit, diag := s.cache.load(fn)
				if diag != nil {
					s.mu.Lock()
					s.res.Diagnostics = append(s.res.Diagnostics, *diag)
					s.mu.Unlock()
				}
				if hit {
					s.db.Put(out.sum)
					s.mu.Lock()
					s.res.absorb(out)
					s.mu.Unlock()
					continue
				}
			}
			start := time.Now()
			out := s.analyzeOne(s.prog.Funcs[fn], w)
			s.opts.Obs.Count(obs.MTasksExecuted, 1)
			w.wc.AddTask(time.Since(start))
			s.db.Put(out.sum)
			s.mu.Lock()
			s.res.absorb(out)
			s.mu.Unlock()
			if s.cache != nil {
				if diag := s.cache.save(fn, out); diag != nil {
					s.mu.Lock()
					s.res.Diagnostics = append(s.res.Diagnostics, *diag)
					s.mu.Unlock()
				}
			}
			if out.canceled {
				break
			}
		}
	}
	s.complete(i)
}

// analyzeOne summarizes a single function (Steps I and II) and checks its
// path entries (Step III) on w's solver. It never panics: a panic anywhere
// in symbolic execution or IPP checking is recovered into a default
// summary plus a DegradePanic diagnostic, so one pathological function
// cannot take down the run.
func (s *sccRun) analyzeOne(fn *ir.Func, w *worker) funcOutcome {
	opts := s.opts
	fctx := s.ctx
	if opts.FuncTimeout > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(s.ctx, opts.FuncTimeout)
		defer cancel()
	}

	var out funcOutcome
	var sres symexec.Result
	var g0 int // the solver's give-ups before Step III
	panicCause := ""
	w.slv.SetFunction(fn.Name)
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicCause = fmt.Sprintf("recovered panic: %v", r)
			}
		}()
		sres = w.ex.Summarize(fctx, fn)
		g0 = w.slv.Stats().GaveUp
		out.reports, out.sum = ipp.CheckWith(fctx, sres, w.slv, ipp.Options{Obs: opts.Obs, Provenance: opts.Provenance, FieldKinds: opts.fieldKinds})
		out.paths = sres.NumPaths
	}()
	if panicCause != "" {
		return funcOutcome{
			panicked: true,
			sum:      summary.Default(s.syms, fn.Name),
			diags:    []Diagnostic{{Fn: fn.Name, Kind: DegradePanic, Cause: panicCause}},
		}
	}

	if s.ctx.Err() != nil {
		// The whole run is being canceled; the run-level diagnostic is
		// recorded once by analyzeWithDB.
		out.canceled = true
	} else if fctx.Err() != nil {
		out.timedOut = true
		out.diags = append(out.diags, Diagnostic{
			Fn:    fn.Name,
			Kind:  DegradeTimeout,
			Cause: fmt.Sprintf("function budget %v exceeded after %d paths; default entry added", opts.FuncTimeout, sres.NumPaths),
		})
	}
	if sres.TruncatedPaths {
		out.trunc = true
		out.diags = append(out.diags, Diagnostic{
			Fn:    fn.Name,
			Kind:  DegradePathBudget,
			Cause: fmt.Sprintf("path enumeration truncated at MaxPaths=%d", opts.Exec.MaxPaths),
		})
	}
	if sres.TruncatedSubcases {
		out.trunc = true
		out.diags = append(out.diags, Diagnostic{
			Fn:    fn.Name,
			Kind:  DegradeSubcaseBudget,
			Cause: fmt.Sprintf("sub-case set truncated at MaxSubcases=%d", opts.Exec.MaxSubcases),
		})
	}
	// A function's give-up total is Step II's count (each query counted
	// once per path through its trie node) plus Step III's delta. The
	// cache replays give-ups on hits, so the total does not depend on
	// which worker filled an entry.
	if d := sres.GaveUp + w.slv.Stats().GaveUp - g0; d > 0 {
		out.diags = append(out.diags, Diagnostic{
			Fn:    fn.Name,
			Kind:  DegradeSolverGiveUp,
			Cause: fmt.Sprintf("%d solver queries exceeded limits and answered SAT conservatively", d),
		})
	}
	return out
}
