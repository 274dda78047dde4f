// Package symexec implements Step II of the RID analysis (§3.3.3, §4.4):
// per-path symbolic execution that turns each enumerated path into a set of
// summary entries. Paths that share a prefix share its execution: the
// executor walks the trie of enumerated paths depth-first and clones the
// sub-case states only where paths diverge. Instruction semantics follow Figure 6; call instructions
// follow Algorithm 1 (one forked state per satisfiable callee summary
// entry); at each return an entry is produced and conditions on local
// variables are removed by existential projection.
package symexec

import (
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
	// Syms is the table the entries' expressions were built in; Step III
	// builds the function's default entry there too.
	Syms *sym.Table
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

	// GaveUp counts the solver give-ups of Step II. A query at a trie node
	// stands for the same query on every path through the node, so it is
	// counted once per such path: the count does not depend on how much
	// of the trie is shared.
	GaveUp int
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

func (st *state) consSet(t *sym.Table) sym.Set {
	if !st.consValid {
		conds := st.consScratch[:0]
		for _, tc := range st.conds {
			conds = append(conds, tc.cond)
		}
		st.consScratch = conds
		st.cons = sym.NewSet(t, conds)
		st.consValid = true
	}
	return st.cons
}

// addCond appends a condition; returns false when the state became
// trivially infeasible.
func (st *state) addCond(t *sym.Table, c *sym.Expr, src *ir.Instr) bool {
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
		st.cons = st.cons.And(t, c)
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

// Executor summarizes functions against a summary database, building
// every expression in one table.
type Executor struct {
	cfg  Config
	syms *sym.Table
	db   *summary.DB
	slv  *solver.Solver
}

// pathRun is the per-function execution context: occurrence counters
// indexed by instruction site ID (fresh symbols are named by creation site
// and occurrence index so the "same" value — e.g. the object allocated by
// a given call — has one identity across all paths), the solver, and the
// scratch storage reused across functions via pathRunPool. The counters
// describe the trie node being executed and are restored on backtrack.
type pathRun struct {
	*Executor
	job    *job
	slv    *solver.Solver
	occ    []int32 // per-site occurrence counts, indexed by site ID
	site   int     // site ID of the instruction being executed
	anon   int
	weight int // paths through the trie node being executed
	gaveUp int // solver give-ups, each counted once per path through its node

	symBuf      []byte               // siteSym name assembly
	occSaved    []int32              // occ snapshots, one per open branch node
	bufs        [][]*state           // free state slices (getBuf/putBuf)
	finished    []*state             // returned sub-cases awaiting finalize
	outBuf      []*state             // call() fork results
	oneBuf      [1]*state            // step() singleton result
	callArgs    map[string]*sym.Expr // Algorithm-1 instantiation map
	instScratch summary.Entry        // InstantiateInto target
	proj        sym.Projector        // finalize's local projection

	// The function's finalized entries, in path order, until
	// freezeEntries copies them out.
	entries []frozenEntry
}

// New returns an executor that builds its expressions in syms, the
// analysis run's table. db supplies callee summaries (predefined and
// previously computed); slv decides constraint satisfiability.
func New(syms *sym.Table, db *summary.DB, slv *solver.Solver, cfg Config) *Executor {
	return &Executor{cfg: cfg.withDefaults(), syms: syms, db: db, slv: slv}
}

// siteSym returns the fresh symbol for the current execution of in: stable
// across paths (same site, same occurrence index → same symbol). The name
// is assembled in a reused buffer and interned through FreshBytes, so no
// case allocates: a symbol already seen on another path is found, and a
// new one copies its name into the table's arena.
func (pr *pathRun) siteSym(fn *ir.Func, prefix string) *sym.Expr {
	id := pr.site
	b := pr.symBuf[:0]
	b = append(b, prefix...)
	b = append(b, '@')
	b = append(b, fn.Name...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(pr.occ[id]), 10)
	pr.symBuf = b
	return pr.syms.FreshBytes(b)
}

func (pr *pathRun) anonSym(prefix string) *sym.Expr {
	pr.anon++
	return pr.syms.Fresh(prefix + strconv.Itoa(pr.anon))
}

// walk executes the subtree of the path trie that holds paths [lo,hi).
// Step I enumerates paths depth-first, so the paths sharing a prefix of
// d+1 blocks are contiguous and the trie needs no data structure of its
// own: a node is a range of paths and a depth. The paths in [lo,hi) agree
// on their first d blocks, whose execution left the live sub-cases in
// states. walk owns states: every state is finalized or recycled, and each
// leaf sets its path's flags and adds its entries to the function's.
// truncated reports whether the sub-case budget cut the set anywhere on the
// shared prefix.
func (pr *pathRun) walk(lo, hi, d int, states []*state, truncated bool) {
	j := pr.job
	blocks := j.fn.Body().Blocks
	for {
		path := j.paths[lo].Blocks
		if j.ctx.Err() != nil {
			pr.dropStates(states)
			pr.endPaths(lo, hi, truncated, true)
			return
		}
		pr.weight = hi - lo
		instrs := blocks[path[d]].Instrs
		site := j.siteBase[path[d]]
		if d+1 == len(path) {
			// A leaf: the block ends in the path's return, and a return
			// block has no successors, so the range is this one path.
			for k, in := range instrs {
				if states, truncated = pr.stepAll(in, site+k, -1, states, truncated); len(states) == 0 {
					break
				}
			}
			pr.dropStates(states)
			pr.finishPath(lo, truncated)
			return
		}
		// Every instruction but the terminator runs the same way for every
		// child; only the terminator reads the next block.
		last := len(instrs) - 1
		for k, in := range instrs[:last] {
			if states, truncated = pr.stepAll(in, site+k, -1, states, truncated); len(states) == 0 {
				pr.endPaths(lo, hi, truncated, false)
				return
			}
		}
		if pr.childEnd(lo, hi, d) < hi {
			pr.branch(lo, hi, d, states, truncated)
			return
		}
		// One child: descend in place, no clone.
		if states, truncated = pr.stepAll(instrs[last], site+last, path[d+1], states, truncated); len(states) == 0 {
			pr.endPaths(lo, hi, truncated, false)
			return
		}
		d++
	}
}

// branch runs the children of a trie node whose paths [lo,hi) diverge
// after block d, in path order. Each child but the last executes on clones
// of states, the last on states itself. The occurrence counters and the
// anonymous-symbol counter are restored before each child, so every child
// names its symbols exactly as a path executed alone from the entry does.
func (pr *pathRun) branch(lo, hi, d int, states []*state, truncated bool) {
	j := pr.job
	b := j.paths[lo].Blocks[d]
	instrs := j.fn.Body().Blocks[b].Instrs
	term, site := instrs[len(instrs)-1], j.siteBase[b]+len(instrs)-1
	mark := len(pr.occSaved)
	pr.occSaved = append(pr.occSaved, pr.occ...)
	anon := pr.anon
	for first := true; lo < hi; first = false {
		mid := pr.childEnd(lo, hi, d)
		sub := states
		if mid < hi {
			sub = pr.getBuf()
			for _, st := range states {
				sub = append(sub, st.clone())
			}
		}
		if !first {
			copy(pr.occ, pr.occSaved[mark:])
			pr.anon = anon
		}
		pr.weight = mid - lo
		sub, trunc := pr.stepAll(term, site, j.paths[lo].Blocks[d+1], sub, truncated)
		if len(sub) == 0 {
			pr.putBuf(sub)
			pr.endPaths(lo, mid, trunc, false)
		} else {
			pr.walk(lo, mid, d+1, sub, trunc)
		}
		lo = mid
	}
	pr.occSaved = pr.occSaved[:mark]
}

// childEnd returns the end of the child range that starts at lo: the
// paths of [lo,hi) that agree with path lo on block d+1.
func (pr *pathRun) childEnd(lo, hi, d int) int {
	paths := pr.job.paths
	b := paths[lo].Blocks[d+1]
	mid := lo + 1
	for mid < hi && paths[mid].Blocks[d+1] == b {
		mid++
	}
	return mid
}

// stepAll executes in, whose site ID is site, on every live state: dead
// states are recycled, states that return move to pr.finished, and the
// survivors are cut to the sub-case budget. It consumes states and
// returns the survivors in a buffer of its own.
func (pr *pathRun) stepAll(in *ir.Instr, site, nextBlock int, states []*state, truncated bool) ([]*state, bool) {
	pr.site = site
	pr.occ[site]++
	next := pr.getBuf()
	for _, st := range states {
		if st.dead {
			putState(st)
			continue
		}
		for _, ns := range pr.step(pr.job.fn, st, in, nextBlock) {
			switch {
			case ns.dead:
				putState(ns)
			case ns.hasRet || in.Op == ir.OpReturn:
				pr.finished = append(pr.finished, ns)
			default:
				next = append(next, ns)
			}
		}
	}
	pr.putBuf(states)
	if len(next) > pr.cfg.MaxSubcases {
		for _, st := range next[pr.cfg.MaxSubcases:] {
			putState(st)
		}
		next = next[:pr.cfg.MaxSubcases]
		truncated = true
	}
	return next, truncated
}

// finishPath finalizes the returned states of leaf path i into the
// function's entry scratch.
func (pr *pathRun) finishPath(i int, truncated bool) {
	mark := len(pr.entries)
	for _, st := range pr.finished {
		pr.entries = append(pr.entries, frozenEntry{path: i})
		fe := &pr.entries[len(pr.entries)-1]
		prov, ok := pr.finalize(pr.job.fn, st, &fe.Entry)
		putState(st)
		if ok {
			fe.prov = prov
		} else {
			pr.entries = pr.entries[:len(pr.entries)-1]
		}
	}
	pr.finished = pr.finished[:0]
	if len(pr.entries)-mark > pr.cfg.MaxSubcases {
		cut := mark + pr.cfg.MaxSubcases
		clear(pr.entries[cut:])
		pr.entries = pr.entries[:cut]
		truncated = true
	}
	pr.endPaths(i, i+1, truncated, false)
}

// freezeEntries copies the function's entries out of scratch into an array of
// exactly their number, and clears the scratch.
func (pr *pathRun) freezeEntries() []frozenEntry {
	if len(pr.entries) == 0 {
		return nil
	}
	out := make([]frozenEntry, len(pr.entries))
	copy(out, pr.entries)
	clear(pr.entries)
	pr.entries = pr.entries[:0]
	return out
}

// endPaths closes paths [lo,hi): their sub-cases all died on the shared
// prefix, or the context expired before it ended, or (hi = lo+1) the path
// finished.
func (pr *pathRun) endPaths(lo, hi int, truncated, canceled bool) {
	f := 0
	if truncated {
		f |= pathTruncated
	}
	if canceled {
		f |= pathCanceled
	}
	for i := lo; i < hi; i++ {
		pr.job.pathFlags[i] = f
	}
}

// dropStates recycles states that will never reach a return and returns
// the slice to the buffer list.
func (pr *pathRun) dropStates(states []*state) {
	for _, st := range states {
		putState(st)
	}
	pr.putBuf(states)
}

// getBuf and putBuf keep the free list of state slices: one
// slice is live per trie level being walked, plus the one being filled.
func (pr *pathRun) getBuf() []*state {
	n := len(pr.bufs)
	if n == 0 {
		return nil
	}
	b := pr.bufs[n-1]
	pr.bufs = pr.bufs[:n-1]
	return b[:0]
}

func (pr *pathRun) putBuf(b []*state) {
	if cap(b) > 0 {
		pr.bufs = append(pr.bufs, b[:0])
	}
}

// sat decides cs on the run's solver. A query at a trie node stands for
// the same query on every path through the node, so a give-up is counted
// once per path: the DegradeSolverGiveUp count does not depend on how
// much of the trie is shared.
func (pr *pathRun) sat(cs sym.Set) bool {
	g0 := pr.slv.Stats().GaveUp
	v := pr.slv.Sat(cs)
	pr.gaveUp += (pr.slv.Stats().GaveUp - g0) * pr.weight
	return v
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
		st.vmap[in.Dst] = pr.syms.Field(pr.eval(st, in.Obj), in.Field)
	case ir.OpRandom:
		st.vmap[in.Dst] = pr.siteSym(fn, "r")
	case ir.OpCompare:
		a := pr.eval(st, in.A)
		b := pr.eval(st, in.B)
		st.vmap[in.Dst] = pr.syms.Cond(a, in.Pred, b)
	case ir.OpAssume:
		c := pr.eval(st, in.Cond).AsCond(pr.syms)
		st.addCond(pr.syms, c, nil)
	case ir.OpBranch:
		// Control transfer only; the path dictates the successor.
	case ir.OpBranchCond:
		if in.True == in.False || nextBlock < 0 {
			return one
		}
		c := pr.eval(st, in.Cond).AsCond(pr.syms)
		if nextBlock == in.False {
			c = c.NegateCond(pr.syms)
		} else if nextBlock != in.True {
			// Path and terminator disagree: malformed path; kill the state.
			st.dead = true
			return one
		}
		st.addCond(pr.syms, c, in)
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
			st.vmap[in.Dst] = pr.siteSym(fn, in.Fn)
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
			m[pr.syms.Arg(p).Key()] = pr.eval(st, in.Args[i])
		}
	}
	result := pr.siteSym(fn, in.Fn)
	m[pr.syms.Ret().Key()] = result

	out := pr.outBuf[:0]
	for idx, entry := range sum.Entries {
		// The instantiated entry lives in pathRun scratch and is fully
		// consumed below before the next iteration reuses it.
		inst := entry.InstantiateInto(pr.syms, &pr.instScratch, m)
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
			if !ns.addCond(pr.syms, c, nil) {
				ok = false
				break
			}
		}
		if !ok {
			putState(ns)
			continue
		}
		if !pr.cfg.NoPrune && inst.Cons.Len() > 0 {
			if !pr.sat(ns.consSet(pr.syms)) {
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
		e := pr.syms.Local(v.Var)
		st.vmap[v.Var] = e
		return e
	case ir.ValInt:
		return pr.syms.Const(v.Int)
	case ir.ValBool:
		return pr.syms.BoolConst(v.Bool)
	case ir.ValNull:
		return pr.syms.Null()
	}
	return pr.anonSym("v")
}

// finalize turns a finished state into the summary entry e: decide
// feasibility, bind [0] to the returned expression, project local
// conditions, and rewrite refcount keys and the return expression through
// the projection pins. It reports false, leaving e as it was, for an
// unsatisfiable path. Under Config.Provenance the returned EntryProv
// records the derivation (raw and projected constraints, applied callee
// entries); it is nil otherwise.
func (pr *pathRun) finalize(fn *ir.Func, st *state, e *summary.Entry) (*EntryProv, bool) {
	// Feasibility must be decided on the full path condition, locals
	// included: a path can be infeasible purely through conditions on
	// locals (e.g. $c < 0 ∧ $c > 0 after the local was overwritten), and
	// projecting first would silently weaken an unsatisfiable system into
	// a live one. The binding [0] == ret is left out of the query. No path
	// condition mentions [0] (a call binds its callee's [0] to the call's
	// site symbol), so choosing [0] = ret always meets the binding and it
	// cannot change the verdict. Without it the query stays on the solver's
	// term ⋈ const fast path and repeats the cache key of the state's last
	// call-site prune.
	cons := st.consSet(pr.syms)
	if cons.HasFalse() || !pr.sat(cons) {
		return nil, false
	}
	retExpr := st.ret
	var bind *sym.Expr // [0] == ret
	if retExpr != nil {
		bind = pr.syms.Cond(pr.syms.Ret(), ir.EQ, retExpr)
	}

	var prov *EntryProv
	if pr.cfg.Provenance {
		raw := cons
		if bind != nil {
			raw = raw.And(pr.syms, bind)
		}
		prov = &EntryProv{RawCons: raw.String(), Apps: st.apps}
	}

	var pins map[string]*sym.Expr
	if pr.cfg.KeepLocalConds {
		if bind != nil {
			cons = cons.And(pr.syms, bind)
		}
	} else {
		cons, pins = pr.proj.Project(pr.syms, cons, bind)
	}

	e.Cons = cons
	if prov != nil {
		prov.Cons = cons.String()
	}
	if retExpr != nil {
		r := retExpr
		if pins != nil {
			r = r.Subst(pr.syms, pins)
		}
		if r.HasLocal() {
			r = pr.syms.Ret() // unconstrained: "can return anything"
		}
		e.Ret = r
	}
	for _, ch := range st.changes {
		rc := ch.RC
		if pins != nil {
			rc = rc.Subst(pr.syms, pins)
		}
		// Refcounts on unobservable (local) objects are kept here: their
		// site-stable names make them comparable across the function's own
		// path pairs, which is how allocation-failure/leak splits are
		// caught. They are stripped from the exported function summary by
		// ipp.Check, since callers can neither observe nor balance them.
		e.AddChange(rc, ch.Delta)
	}
	return prov, true
}
