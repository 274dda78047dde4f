// Two-level work-stealing scheduler (§5.3 refined), the only scheduler:
// the outer level keeps the SCC DAG discipline — an SCC becomes ready only
// when every callee SCC has completed — but the inner unit of scheduled
// work is one subtree of one function's path trie (the paths below one
// child of its first branching block), not a whole function. The worker
// that takes an SCC ("owner") runs Step I, publishes the subtree tasks to
// its own deque, and any idle worker steals from the top while
// the owner drains from the bottom. Steps I and III stay on the owner, so
// per-function state (cache load/save interleaving, summary DB ordering
// within an SCC) does not depend on the schedule. With one worker there
// is nobody to steal from, so the owner runs its tasks in index order and
// publishes none.
//
// Determinism: task results land in per-path slots and Job.Finish merges
// them in path order; per-task solver give-ups are accumulated into the
// function's job and the panic cause is chosen by minimum task index, so
// reports, diagnostics, and stats are byte-identical at any Workers
// setting and under any steal interleaving (Options.StealSeed exists so
// the property test can drive many interleavings).
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/callgraph"
	"repro/internal/ipp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// subtreeTask is the unit of stealable work: execute subtree idx of fj's job.
type subtreeTask struct {
	fj     *funcJob
	idx    int
	queued obs.Span // opened at enqueue, ended when execution starts
}

// funcJob tracks one function's in-flight subtree tasks across workers.
type funcJob struct {
	fn        string
	job       *symexec.Job
	remaining atomic.Int64   // open tasks; the finisher of the last one releases done
	done      sync.WaitGroup // held once while any task is open
	gaveUp    atomic.Int64   // summed per-task solver give-ups

	mu         sync.Mutex
	panicked   bool
	panicIdx   int // minimum panicking task index (-1: Step I, MaxInt: Step III)
	panicCause string
}

// notePanic records a recovered task panic. When several tasks panic, the
// one with the minimum index wins, which is the panic a single worker
// meets first — so the DegradePanic cause is schedule-independent.
func (fj *funcJob) notePanic(idx int, r any) {
	fj.mu.Lock()
	if !fj.panicked || idx < fj.panicIdx {
		fj.panicked = true
		fj.panicIdx = idx
		fj.panicCause = fmt.Sprintf("recovered panic: %v", r)
	}
	fj.mu.Unlock()
}

func (fj *funcJob) panicCauseMin() (string, bool) {
	fj.mu.Lock()
	defer fj.mu.Unlock()
	return fj.panicCause, fj.panicked
}

// stealWorker is one worker's private state: its solver (shared query
// cache, private counters), the executor that prepares the functions it
// owns, its seeded victim-selection RNG, and its utilization record.
type stealWorker struct {
	id  int
	slv *solver.Solver
	ex  *symexec.Executor
	rng *sched.RNG
	wc  *obs.WorkerCounters
}

// stealRun is the shared state of one scheduling run.
type stealRun struct {
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
	waiting    []int
	dependents [][]int
	ready      []int
	pending    int

	deques []sched.Deque[subtreeTask]

	// Eventcount parking: publishers bump events and broadcast; a worker
	// that found nothing re-checks events against the value it read before
	// hunting and sleeps only if nothing was published in between.
	events   atomic.Int64
	allDone  atomic.Bool
	parkMu   sync.Mutex
	parkCond *sync.Cond
}

// analyzeSteal runs the two-level work-stealing scheduler with
// opts.Workers workers. Extra workers help inside a single expensive
// function instead of idling beside it.
func analyzeSteal(ctx context.Context, prog *ir.Program, g *callgraph.Graph, syms *sym.Table, db *summary.DB, toAnalyze func(string) bool, cache *cacheState, opts Options, res *Result) {
	sccs := g.SCCs()
	n := len(sccs)
	s := &stealRun{
		ctx: ctx, prog: prog, syms: syms, db: db, toAnalyze: toAnalyze,
		cache: cache, opts: opts, res: res,
		sccs: sccs, pending: n,
	}
	s.parkCond = sync.NewCond(&s.parkMu)
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
	if n == 0 {
		s.allDone.Store(true)
	}

	// One cache for the whole run: every worker shares solved sub-results,
	// so a constraint set solved anywhere in the sweep is a hit everywhere
	// else.
	scache := solver.NewCache()

	workers := opts.Workers
	s.deques = make([]sched.Deque[subtreeTask], workers)
	reg := opts.Obs.Registry()
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(id int) {
			defer wg.Done()
			w := &stealWorker{
				id:  id,
				slv: solver.NewWithCache(opts.SolverLimits, scache),
				rng: sched.NewRNG(uint64(opts.StealSeed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15),
				wc:  reg.Worker(id),
			}
			w.slv.SetObs(opts.Obs)
			w.ex = symexec.New(syms, db, w.slv, opts.Exec)
			s.worker(w)
		}(i)
	}
	wg.Wait()
}

// worker is the scheduling loop: own deque first (depth-first on the
// function this worker is driving), then a ready SCC (widen parallelism),
// then a steal (help someone else's function), then park.
func (s *stealRun) worker(w *stealWorker) {
	for {
		if t, ok := s.deques[w.id].PopBottom(); ok {
			s.runTask(t, w, false)
			continue
		}
		ev := s.events.Load()
		if i, ok := s.takeSCC(); ok {
			s.driveSCC(i, w)
			continue
		}
		hunt := s.opts.Obs.Start(obs.PhaseSteal, "")
		if t, ok := s.trySteal(w); ok {
			hunt.End()
			s.runTask(t, w, true)
			continue
		}
		// Failed hunt: the span is dropped — PhaseSteal records only
		// successful steals.
		if s.allDone.Load() {
			return
		}
		s.park(ev)
	}
}

// takeSCC pops a ready SCC, if any.
func (s *stealRun) takeSCC() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ready) == 0 {
		return 0, false
	}
	i := s.ready[len(s.ready)-1]
	s.ready = s.ready[:len(s.ready)-1]
	return i, true
}

// complete marks SCC i done, readies its dependents, and wakes hunters.
func (s *stealRun) complete(i int) {
	s.mu.Lock()
	for _, d := range s.dependents[i] {
		s.waiting[d]--
		if s.waiting[d] == 0 {
			s.ready = append(s.ready, d)
		}
	}
	s.pending--
	last := s.pending == 0
	s.mu.Unlock()
	if last {
		s.allDone.Store(true)
	}
	s.publish()
}

// trySteal scans the other deques from a seeded random start and takes
// the oldest task of the first non-empty one.
func (s *stealRun) trySteal(w *stealWorker) (subtreeTask, bool) {
	n := len(s.deques)
	start := w.rng.Intn(n)
	for k := 0; k < n; k++ {
		v := start + k
		if v >= n {
			v -= n
		}
		if v == w.id {
			continue
		}
		if t, ok := s.deques[v].StealTop(); ok {
			return t, true
		}
	}
	return subtreeTask{}, false
}

// publish signals that new work may exist (task pushed, SCC readied, or
// the run finished).
func (s *stealRun) publish() {
	s.events.Add(1)
	s.parkMu.Lock()
	s.parkCond.Broadcast()
	s.parkMu.Unlock()
}

// park sleeps until something is published after the caller read seen.
func (s *stealRun) park(seen int64) {
	s.parkMu.Lock()
	for s.events.Load() == seen && !s.allDone.Load() {
		s.parkCond.Wait()
	}
	s.parkMu.Unlock()
}

// runTask executes one subtree task on w's solver, with per-task panic
// recovery and give-up attribution to the task's function.
func (s *stealRun) runTask(t subtreeTask, w *stealWorker, stolen bool) {
	t.queued.End()
	fj := t.fj
	start := time.Now()
	w.slv.SetFunction(fj.fn)
	func() {
		defer func() {
			if r := recover(); r != nil {
				fj.notePanic(t.idx, r)
			}
		}()
		fj.gaveUp.Add(int64(fj.job.RunTask(t.idx, w.slv)))
	}()
	s.opts.Obs.Count(obs.MTasksExecuted, 1)
	if stolen {
		s.opts.Obs.Count(obs.MTasksStolen, 1)
	}
	w.wc.AddTask(stolen, time.Since(start))
	if fj.remaining.Add(-1) == 0 {
		fj.done.Done()
	}
}

// driveSCC analyzes the members of SCC i in their sorted order (so cache
// load/save interleaving and sibling-summary visibility never depend on
// the schedule), then completes the SCC. After
// cancellation it still completes, so dependents unblock and the run
// drains promptly.
func (s *stealRun) driveSCC(i int, w *stealWorker) {
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
			out := s.analyzeOne(s.prog.Funcs[fn], w)
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

// analyzeOne summarizes a single function and checks its path entries
// over the Job seam: the owner enumerates (Step I), fans the path trie's
// subtrees out as stealable tasks (Step II), helps the rest of the run while stolen tasks
// drain, then merges and checks (Step III) on its own solver. It never
// panics: a panic anywhere in symbolic execution or IPP checking is
// recovered into a default summary plus a DegradePanic diagnostic, so one
// pathological function cannot take down the run.
func (s *stealRun) analyzeOne(fn *ir.Func, w *stealWorker) funcOutcome {
	opts := s.opts
	fctx := s.ctx
	if opts.FuncTimeout > 0 {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(s.ctx, opts.FuncTimeout)
		defer cancel()
	}

	fj := &funcJob{fn: fn.Name}
	w.slv.SetFunction(fn.Name)

	// Step I on the owner; a panic here (e.g. from an OnFunction hook) is
	// recorded as index -1 so it outranks any task panic, since no task
	// would have run after it.
	tPrep := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				fj.notePanic(-1, r)
			}
		}()
		fj.job = w.ex.Prepare(fctx, fn)
	}()
	w.wc.AddBusy(time.Since(tPrep))

	if fj.job != nil {
		if n := fj.job.NumTasks(); n > 0 {
			fj.remaining.Store(int64(n))
			fj.done.Add(1)
			inline := n // tasks the owner runs in place, in index order
			if n > 1 && len(s.deques) > 1 {
				// Push tasks n-1..1 (reverse, so the owner's LIFO pops
				// ascending) and run task 0 inline; thieves steal from the
				// top, i.e. the highest indices — the ones the owner would
				// reach last. A lone worker has no thieves, so it pushes
				// nothing and emits no queue spans.
				for i := n - 1; i >= 1; i-- {
					s.deques[w.id].PushBottom(subtreeTask{
						fj: fj, idx: i,
						queued: opts.Obs.Start(obs.PhaseQueue, fn.Name),
					})
				}
				s.publish()
				inline = 1
			}
			for i := 0; i < inline; i++ {
				s.runTask(subtreeTask{fj: fj, idx: i}, w, false)
			}
			for {
				t, ok := s.deques[w.id].PopBottom()
				if !ok {
					break
				}
				s.runTask(t, w, false)
			}
			// Stolen tasks may still be in flight. Help other functions
			// while waiting rather than idling; when no work is available
			// anywhere, block until the last task releases done.
			for fj.remaining.Load() > 0 {
				if t, ok := s.trySteal(w); ok {
					s.runTask(t, w, true)
					continue
				}
				fj.done.Wait()
			}
		}
	}

	// Step III on the owner's solver, unless an earlier step panicked. A
	// panic here ranks after every task's, since they all ran before it.
	// Stolen tasks may have relabeled the solver.
	var out funcOutcome
	var sres symexec.Result
	w.slv.SetFunction(fn.Name)
	g0 := w.slv.Stats().GaveUp
	if _, panicked := fj.panicCauseMin(); !panicked {
		tCheck := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					fj.notePanic(math.MaxInt, r)
				}
			}()
			sres = fj.job.Finish()
			out.reports, out.sum = ipp.CheckWith(fctx, sres, w.slv, ipp.Options{Obs: opts.Obs, Provenance: opts.Provenance, FieldKinds: opts.fieldKinds})
			out.paths = sres.NumPaths
		}()
		w.wc.AddBusy(time.Since(tCheck))
	}
	if cause, panicked := fj.panicCauseMin(); panicked {
		return funcOutcome{
			panicked: true,
			sum:      summary.Default(s.syms, fn.Name),
			diags:    []Diagnostic{{Fn: fn.Name, Kind: DegradePanic, Cause: cause}},
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
	// A function's give-up total is the sum of its tasks' counts (each
	// query counted once per path through its trie node, whichever solver
	// ran it) plus the owner's Step III delta. The cache replays give-ups
	// on hits, so the total is the same one a single worker computes on a
	// single solver.
	if d := fj.gaveUp.Load() + int64(w.slv.Stats().GaveUp-g0); d > 0 {
		out.diags = append(out.diags, Diagnostic{
			Fn:    fn.Name,
			Kind:  DegradeSolverGiveUp,
			Cause: fmt.Sprintf("%d solver queries exceeded limits and answered SAT conservatively", d),
		})
	}
	return out
}
