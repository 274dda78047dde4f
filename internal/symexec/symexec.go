// Package symexec implements Step II of the RID analysis (§3.3.3, §4.4):
// per-path symbolic execution that turns each enumerated path into a set of
// summary entries. Instruction semantics follow Figure 6; call instructions
// follow Algorithm 1 (one forked state per satisfiable callee summary
// entry); at each return an entry is produced and conditions on local
// variables are removed by existential projection.
package symexec

import (
	"context"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/frontend/token"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/sym"
)

// Config controls the executor. Zero values select the paper's evaluation
// settings (§6.1): 100 paths per function, 10 sub-cases per path,
// infeasible forks pruned. Every field defaults independently, so a
// partially-populated Config (say, only MaxSubcases set) still gets the
// paper's values for the rest — identical to DefaultConfig() with that one
// field overridden.
type Config struct {
	MaxPaths    int
	MaxSubcases int

	// NoPrune disables the satisfiability check of Algorithm 1 line 6
	// when forking on callee summary entries (the
	// BenchmarkAblationNoPruning configuration). The zero value — pruning
	// enabled — is the paper's setting; the flag is inverted so that a
	// partially-populated Config cannot silently lose the default.
	NoPrune bool

	// KeepLocalConds disables the local-condition projection of §3.3.3
	// (ablation only; entries stop being caller-comparable).
	KeepLocalConds bool

	// OnFunction, when non-nil, is invoked with the function name at the
	// start of every Summarize call. It exists for instrumentation and
	// fault-injection testing: a panic raised here (or anywhere else in
	// symbolic execution) is isolated per-function by package core, which
	// degrades the function to a default summary instead of crashing the
	// run.
	OnFunction func(fn string)

	// Obs, when non-nil, receives enumerate/exec spans and the Step I/II
	// counters (paths enumerated, subcases forked, summary entries). All
	// hooks are nil-safe, so the zero Config observes nothing at no cost.
	Obs *obs.Obs

	// Provenance retains the derivation of every finalized entry: the
	// enumerated paths (Result.Paths), each callee summary entry applied
	// during Algorithm-1 forking, and the entry constraint before and after
	// the existential projection of locals (PathEntry.Prov). Off by
	// default; the disabled path performs no extra work and no extra
	// allocations (pinned by TestProvenanceOffAllocFree in package core).
	Provenance bool
}

// CalleeApp records one callee summary entry applied while forking on a
// call instruction (Algorithm 1, line 5): which callee, which of its
// entries, and the instantiated constraint that was folded into the path.
type CalleeApp struct {
	Callee     string
	EntryIndex int       // index into the callee summary's entry list
	Cons       string    // instantiated entry constraint (formals replaced)
	Pos        token.Pos // call site
}

// EntryProv is the recorded derivation of one finalized summary entry —
// the evidence Step III needs to explain a report without re-running the
// analysis.
type EntryProv struct {
	// RawCons is the full path constraint at the return, return-value
	// binding included, before locals are existentially projected.
	RawCons string
	// Cons is the exported constraint after projection (what the summary
	// entry carries).
	Cons string
	// Apps lists the callee summary entries applied along the path, in
	// application order.
	Apps []CalleeApp
}

// DefaultConfig returns the paper's evaluation configuration. It is the
// fixed point of defaulting: the zero Config normalizes to exactly this.
func DefaultConfig() Config {
	return Config{MaxPaths: 100, MaxSubcases: 10}
}

func (c Config) withDefaults() Config {
	if c.MaxPaths == 0 {
		c.MaxPaths = 100
	}
	if c.MaxSubcases == 0 {
		c.MaxSubcases = 10
	}
	return c
}

// PathEntry is a finalized summary entry tagged with the path it came from.
type PathEntry struct {
	*summary.Entry
	PathIndex int
	// Prov carries the entry's derivation when Config.Provenance is set;
	// nil otherwise.
	Prov *EntryProv
}

// Result is the outcome of summarizing one function.
type Result struct {
	Fn      *ir.Func
	Entries []PathEntry
	// Paths holds the enumerated paths (indexed by PathEntry.PathIndex)
	// when Config.Provenance is set; nil otherwise.
	Paths     []cfg.Path
	NumPaths  int
	Truncated bool // any budget or the deadline was hit (default entry needed)

	// Degradation detail behind Truncated, for diagnostics: which budget
	// was exhausted, and whether the context expired mid-function.
	TruncatedPaths    bool // path enumeration budget (MaxPaths)
	TruncatedSubcases bool // per-path sub-case budget (MaxSubcases)
	Canceled          bool // context canceled/deadline exceeded
}

// taggedCond is one conjunct of the path constraint, remembering which
// branch instruction produced it so that re-executing the branch (loop
// unrolling) replaces rather than accumulates it (Figure 6).
type taggedCond struct {
	cond *sym.Expr
	src  *ir.Instr // nil for non-branch conditions (assume, call entries)
}

type state struct {
	conds   []taggedCond
	changes map[string]summary.Change
	vmap    map[string]*sym.Expr
	ret     *sym.Expr
	hasRet  bool
	dead    bool
	// apps records the callee summary entries applied on this path, in
	// order. Only populated under Config.Provenance; nil otherwise.
	apps []CalleeApp
	// cons caches the constraint Set built from conds (Sets are immutable,
	// so clones share it). Maintained incrementally by addCond; invalidated
	// when a re-executed branch replaces its condition.
	cons      sym.Set
	consValid bool
	// consScratch is the reused staging slice for consSet rebuilds; NewSet
	// copies out of it, so it never escapes the state.
	consScratch []*sym.Expr
}

// clone forks the state, drawing the copy from the state pool. Every
// mutable container is copied; only immutable storage (interned
// expressions, Set backing arrays) is shared with the clone.
func (st *state) clone() *state {
	n := getState()
	n.conds = append(n.conds[:0], st.conds...)
	n.ret = st.ret
	n.hasRet = st.hasRet
	n.cons = st.cons
	n.consValid = st.consValid
	if st.apps != nil {
		n.apps = make([]CalleeApp, len(st.apps))
		copy(n.apps, st.apps)
	}
	for k, v := range st.changes {
		n.changes[k] = v
	}
	for k, v := range st.vmap {
		n.vmap[k] = v
	}
	return n
}

func (st *state) consSet() sym.Set {
	if !st.consValid {
		conds := st.consScratch[:0]
		for _, tc := range st.conds {
			conds = append(conds, tc.cond)
		}
		st.consScratch = conds
		st.cons = sym.NewSet(conds)
		st.consValid = true
	}
	return st.cons
}

// addCond appends a condition; returns false when the state became
// trivially infeasible.
func (st *state) addCond(c *sym.Expr, src *ir.Instr) bool {
	if c.IsTrue() {
		if src != nil {
			st.removeCondFrom(src)
		}
		return true
	}
	if c.IsFalse() {
		st.dead = true
		return false
	}
	if src != nil {
		st.removeCondFrom(src)
	}
	st.conds = append(st.conds, taggedCond{cond: c, src: src})
	if st.consValid {
		st.cons = st.cons.And(c)
	}
	return true
}

// removeCondFrom drops any condition previously added by the given branch
// instruction (Figure 6's replacement rule for re-executed branches).
func (st *state) removeCondFrom(src *ir.Instr) {
	out := st.conds[:0]
	for _, tc := range st.conds {
		if tc.src != src {
			out = append(out, tc)
		}
	}
	if len(out) != len(st.conds) {
		st.consValid = false // a condition was replaced; rebuild lazily
	}
	st.conds = out
}

// ---------------------------------------------------------------------------

// Executor summarizes functions against a summary database.
type Executor struct {
	cfg Config
	db  *summary.DB
	slv *solver.Solver
}

// pathRun is the per-task execution context: occurrence counters indexed
// by instruction site ID (fresh symbols are named by creation site and
// occurrence index so the "same" value — e.g. the object allocated by a
// given call — has one identity across all paths), the task's solver, and
// the scratch storage reused across tasks via pathRunPool.
type pathRun struct {
	*Executor
	job  *Job
	slv  *solver.Solver
	occ  []int32 // per-site occurrence counts, indexed by Job.siteIDs
	anon int

	symBuf      []byte               // siteSym name assembly
	states      []*state             // live sub-cases, current instruction
	nextStates  []*state             // live sub-cases, next instruction
	finished    []*state             // returned sub-cases awaiting finalize
	outBuf      []*state             // call() fork results
	oneBuf      [1]*state            // step() singleton result
	callArgs    map[string]*sym.Expr // Algorithm-1 instantiation map
	instScratch summary.Entry        // InstantiateInto target
}

// New returns an executor. db supplies callee summaries (predefined and
// previously computed); slv decides constraint satisfiability.
func New(db *summary.DB, slv *solver.Solver, cfg Config) *Executor {
	return &Executor{cfg: cfg.withDefaults(), db: db, slv: slv}
}

// siteSym returns the fresh symbol for the current execution of in: stable
// across paths (same site, same occurrence index → same symbol). The name
// is assembled in a reused buffer and interned through FreshBytes, so the
// common case — a symbol already seen on another path — allocates nothing.
func (pr *pathRun) siteSym(fn *ir.Func, in *ir.Instr, prefix string) *sym.Expr {
	id := pr.job.siteIDs[in]
	b := pr.symBuf[:0]
	b = append(b, prefix...)
	b = append(b, '@')
	b = append(b, fn.Name...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(pr.occ[id]), 10)
	pr.symBuf = b
	return sym.FreshBytes(b)
}

func (pr *pathRun) anonSym(prefix string) *sym.Expr {
	pr.anon++
	return sym.Fresh(prefix + strconv.Itoa(pr.anon))
}

// Summarize runs Steps I and II on fn: enumerate paths, symbolically
// execute each, and return the per-path entries (Step III — consistency
// checking and merging — lives in internal/ipp). It is Prepare, then
// RunTask for each path in order on the executor's solver, then Finish;
// the work-stealing scheduler in package core drives the same seam with
// stolen tasks, so both share one semantics.
//
// ctx bounds the work: when it expires the executor stops at the next
// path (or block) boundary and returns whatever it has, with Canceled and
// Truncated set so the function degrades to a partial summary plus the
// §5.2 default entry rather than blocking the run.
func (ex *Executor) Summarize(ctx context.Context, fn *ir.Func) Result {
	j := ex.Prepare(ctx, fn)
	for i := 0; i < j.NumTasks(); i++ {
		j.RunTask(i, ex.slv)
	}
	return j.Finish()
}

// execPath symbolically executes one path and returns its summary
// entries (with a parallel provenance slice when capture is enabled, nil
// otherwise), plus whether the sub-case budget truncated the state set and
// whether the context expired mid-path.
func (pr *pathRun) execPath(ctx context.Context, fn *ir.Func, path cfg.Path) ([]*summary.Entry, []*EntryProv, bool, bool) {
	init := getState()
	for _, p := range fn.Params {
		init.vmap[p] = sym.Arg(p)
	}
	states := append(pr.states[:0], init)
	next := pr.nextStates[:0]
	finished := pr.finished[:0]
	truncated := false
	canceled := false

	blocks := fn.Body().Blocks
	for bi, b := range path.Blocks {
		if ctx.Err() != nil {
			canceled = true
			break
		}
		blk := blocks[b]
		nextBlock := -1
		if bi+1 < len(path.Blocks) {
			nextBlock = path.Blocks[bi+1]
		}
		for _, in := range blk.Instrs {
			pr.occ[pr.job.siteIDs[in]]++
			next = next[:0]
			for _, st := range states {
				if st.dead {
					putState(st)
					continue
				}
				res := pr.step(fn, st, in, nextBlock)
				for _, ns := range res {
					if ns.dead {
						putState(ns)
						continue
					}
					if ns.hasRet || in.Op == ir.OpReturn {
						finished = append(finished, ns)
					} else {
						next = append(next, ns)
					}
				}
			}
			states, next = next, states
			if len(states) > pr.cfg.MaxSubcases {
				for _, st := range states[pr.cfg.MaxSubcases:] {
					putState(st)
				}
				states = states[:pr.cfg.MaxSubcases]
				truncated = true
			}
			if len(states) == 0 {
				break
			}
		}
		if len(states) == 0 {
			break
		}
	}
	// States that never reached a return (dead path tail, cancellation)
	// are dropped; recycle them.
	for _, st := range states {
		putState(st)
	}

	var entries []*summary.Entry
	var provs []*EntryProv
	for _, st := range finished {
		e, prov := pr.finalize(fn, st)
		putState(st)
		if e == nil {
			continue
		}
		entries = append(entries, e)
		if pr.cfg.Provenance {
			provs = append(provs, prov)
		}
	}
	if len(entries) > pr.cfg.MaxSubcases {
		entries = entries[:pr.cfg.MaxSubcases]
		truncated = true
		if provs != nil {
			provs = provs[:pr.cfg.MaxSubcases]
		}
	}
	// Store the (possibly grown) scratch backings back for the next task.
	pr.states, pr.nextStates, pr.finished = states[:0], next[:0], finished[:0]
	return entries, provs, truncated, canceled
}

// step executes one instruction on st, returning the successor states
// (usually the same state mutated; calls may fork). The returned slice
// aliases pathRun scratch and is only valid until the next step call.
func (pr *pathRun) step(fn *ir.Func, st *state, in *ir.Instr, nextBlock int) []*state {
	pr.oneBuf[0] = st
	one := pr.oneBuf[:]
	switch in.Op {
	case ir.OpAssign:
		st.vmap[in.Dst] = pr.eval(st, in.Val)
	case ir.OpLoadField:
		st.vmap[in.Dst] = sym.Field(pr.eval(st, in.Obj), in.Field)
	case ir.OpRandom:
		st.vmap[in.Dst] = pr.siteSym(fn, in, "r")
	case ir.OpCompare:
		a := pr.eval(st, in.A)
		b := pr.eval(st, in.B)
		st.vmap[in.Dst] = sym.Cond(a, in.Pred, b)
	case ir.OpAssume:
		c := pr.eval(st, in.Cond).AsCond()
		st.addCond(c, nil)
	case ir.OpBranch:
		// Control transfer only; the path dictates the successor.
	case ir.OpBranchCond:
		if in.True == in.False || nextBlock < 0 {
			return one
		}
		c := pr.eval(st, in.Cond).AsCond()
		if nextBlock == in.False {
			c = c.NegateCond()
		} else if nextBlock != in.True {
			// Path and terminator disagree: malformed path; kill the state.
			st.dead = true
			return one
		}
		st.addCond(c, in)
	case ir.OpCall:
		return pr.call(fn, st, in)
	case ir.OpReturn:
		st.hasRet = true
		if in.HasVal {
			st.ret = pr.eval(st, in.Val)
		}
	}
	return one
}

// call implements Algorithm 1: fork one state per callee summary entry
// whose instantiated constraint is co-satisfiable with the path so far.
// The returned slice aliases pathRun scratch, valid until the next step.
func (pr *pathRun) call(fn *ir.Func, st *state, in *ir.Instr) []*state {
	sum := pr.db.Get(in.Fn)
	if sum == nil {
		// Unknown function: default summary (no changes, unconstrained
		// return) without registering it, matching §5.2's "assume these
		// functions can return any possible value".
		if in.Dst != "" {
			st.vmap[in.Dst] = pr.siteSym(fn, in, in.Fn)
		}
		pr.oneBuf[0] = st
		return pr.oneBuf[:]
	}

	// Build the instantiation map: formal args → actual expressions,
	// [0] → a fresh symbol for this call's result. The map is pathRun
	// scratch: Subst reads it without retaining it.
	m := pr.callArgs
	clear(m)
	for i, p := range sum.Params {
		if i < len(in.Args) {
			m[sym.Arg(p).Key()] = pr.eval(st, in.Args[i])
		}
	}
	result := pr.siteSym(fn, in, in.Fn)
	m[sym.Ret().Key()] = result

	out := pr.outBuf[:0]
	for idx, entry := range sum.Entries {
		// The instantiated entry lives in pathRun scratch and is fully
		// consumed below before the next iteration reuses it.
		inst := entry.InstantiateInto(&pr.instScratch, m)
		ns := st
		if idx < len(sum.Entries)-1 {
			ns = st.clone()
			pr.cfg.Obs.Count(obs.MSubcasesForked, 1)
		}
		if pr.cfg.Provenance {
			ns.apps = append(ns.apps, CalleeApp{
				Callee:     in.Fn,
				EntryIndex: idx,
				Cons:       inst.Cons.String(),
				Pos:        in.Pos,
			})
		}
		ok := true
		for _, c := range inst.Cons.Conds() {
			if !ns.addCond(c, nil) {
				ok = false
				break
			}
		}
		if !ok {
			putState(ns)
			continue
		}
		if !pr.cfg.NoPrune && inst.Cons.Len() > 0 {
			if !pr.slv.Sat(ns.consSet()) {
				putState(ns)
				continue
			}
		}
		for _, ch := range inst.Changes {
			c := ns.changes[ch.RC.Key()]
			c.RC = ch.RC
			c.Delta += ch.Delta
			if c.Delta == 0 {
				delete(ns.changes, ch.RC.Key())
			} else {
				ns.changes[ch.RC.Key()] = c
			}
		}
		if in.Dst != "" {
			if inst.Ret != nil {
				ns.vmap[in.Dst] = inst.Ret
			} else {
				ns.vmap[in.Dst] = result
			}
		}
		out = append(out, ns)
	}
	pr.outBuf = out
	return out
}

// eval maps an IR value to its symbolic expression in st.
func (pr *pathRun) eval(st *state, v ir.Value) *sym.Expr {
	switch v.Kind {
	case ir.ValVar:
		if e, ok := st.vmap[v.Var]; ok {
			return e
		}
		// Read before assignment: an (unobservable) local symbol.
		e := sym.Local(v.Var)
		st.vmap[v.Var] = e
		return e
	case ir.ValInt:
		return sym.Const(v.Int)
	case ir.ValBool:
		return sym.BoolConst(v.Bool)
	case ir.ValNull:
		return sym.Null()
	}
	return pr.anonSym("v")
}

// finalize turns a finished state into a summary entry: bind [0] to the
// returned expression, project local conditions, rewrite refcount keys and
// the return expression through the projection pins, and drop entries that
// are unsatisfiable or whose refcounts remain unobservable. Under
// Config.Provenance the returned EntryProv records the derivation (raw and
// projected constraints, applied callee entries); it is nil otherwise.
func (pr *pathRun) finalize(fn *ir.Func, st *state) (*summary.Entry, *EntryProv) {
	cons := st.consSet()
	retExpr := st.ret
	if retExpr != nil {
		cons = cons.And(sym.Cond(sym.Ret(), ir.EQ, retExpr))
	}

	// Feasibility must be decided on the full constraint, locals included:
	// a path can be infeasible purely through conditions on locals (e.g.
	// $c < 0 ∧ $c > 0 after the local was overwritten), and projecting
	// first would silently weaken an unsatisfiable system into a live one.
	if cons.HasFalse() || !pr.slv.Sat(cons) {
		return nil, nil
	}

	var prov *EntryProv
	if pr.cfg.Provenance {
		prov = &EntryProv{RawCons: cons.String(), Apps: st.apps}
	}

	var pins map[string]*sym.Expr
	if !pr.cfg.KeepLocalConds {
		cons, pins = cons.ProjectLocals()
	}

	e := summary.NewEntry(cons, nil)
	if prov != nil {
		prov.Cons = cons.String()
	}
	if retExpr != nil {
		r := retExpr
		if pins != nil {
			r = r.Subst(pins)
		}
		if r.HasLocal() {
			r = sym.Ret() // unconstrained: "can return anything"
		}
		e.Ret = r
	}
	for _, ch := range st.changes {
		rc := ch.RC
		if pins != nil {
			rc = rc.Subst(pins)
		}
		// Refcounts on unobservable (local) objects are kept here: their
		// site-stable names make them comparable across the function's own
		// path pairs, which is how allocation-failure/leak splits are
		// caught. They are stripped from the exported function summary by
		// ipp.Check, since callers can neither observe nor balance them.
		e.AddChange(rc, ch.Delta)
	}
	return e, prov
}
