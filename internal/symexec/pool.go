package symexec

import (
	"sync"

	"repro/internal/racebuild"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/sym"
)

// Step II allocates in two hot shapes: one pathRun per function (occurrence
// counters, scratch buffers) and one state per live sub-case (forked on
// every multi-entry call, cloned where trie paths diverge). Both are
// recycled through sync.Pools under an ownership contract:
//
//   - a state is uniquely owned by the goroutine executing its trie node;
//     clone() copies every mutable container (conds, changes, vmap, apps),
//     so the only storage shared between a state and its clones is
//     immutable — interned *sym.Expr values and the backing arrays of
//     sym.Set, which are never written after construction;
//   - putState returns a state to the pool when its trie node drops it
//     (dead, truncated by the sub-case budget, left over when the context
//     expires, or finalized into an entry). From that point the state
//     must be unreachable.
//   - st.apps escapes into EntryProv at finalize under Config.Provenance,
//     so resetForPut always drops the apps backing rather than reusing it.
//
// resetForPut keeps the build-tagged contract of internal/racebuild: the
// normal build clears containers and keeps their capacity; the -race
// build poisons uniquely-owned storage and drops it, so a retained alias
// fails loudly under the race/alloc-guard tests instead of silently
// reading recycled data.

var statePool = sync.Pool{New: func() any { return new(state) }}

// getState returns a reset state with usable (possibly recycled) maps.
func getState() *state {
	st := statePool.Get().(*state)
	if st.changes == nil {
		st.changes = make(map[string]summary.Change)
	}
	if st.vmap == nil {
		st.vmap = make(map[string]*sym.Expr)
	}
	return st
}

// resetForPut clears the state for reuse. In the normal build it keeps
// the capacity of its uniquely-owned containers (conds, changes, vmap,
// consScratch); in the -race build it scribbles over them and drops them,
// so an alias that escaped the ownership contract dereferences a nil
// condition or observes a cleared map. cons only has its field zeroed:
// the Set's backing arrays may be shared with live clones and are
// immutable, so they are neither cleared nor reused in place. apps is
// always dropped — its backing can escape into an EntryProv.
func (st *state) resetForPut() {
	clear(st.changes)
	clear(st.vmap)
	st.ret = nil
	st.hasRet = false
	st.dead = false
	st.apps = nil
	st.cons = sym.Set{}
	st.consValid = false
	if racebuild.Enabled {
		clear(st.conds) // nil cond: any later use panics
		clear(st.consScratch)
		st.conds, st.changes, st.vmap, st.consScratch = nil, nil, nil, nil
		return
	}
	st.conds = st.conds[:0]
	st.consScratch = st.consScratch[:0]
}

// putState recycles a dropped state. The caller must hold the only
// reference.
func putState(st *state) {
	st.resetForPut()
	statePool.Put(st)
}

var pathRunPool = sync.Pool{New: func() any { return new(pathRun) }}

// getPathRun returns a per-function execution context bound to j and slv,
// with occurrence counters sized to the function and cleared.
func getPathRun(j *job, slv *solver.Solver) *pathRun {
	pr := pathRunPool.Get().(*pathRun)
	pr.Executor = j.ex
	pr.job = j
	pr.slv = slv
	pr.anon = 0
	pr.weight = 0
	pr.gaveUp = 0
	if cap(pr.occ) < j.numSites {
		pr.occ = make([]int32, j.numSites)
	} else {
		pr.occ = pr.occ[:j.numSites]
		clear(pr.occ)
	}
	if pr.callArgs == nil {
		pr.callArgs = make(map[string]*sym.Expr, 8)
	}
	return pr
}

// putPathRun recycles an execution context. Scratch buffers keep their
// capacity; references into the job are dropped so pooled contexts never
// pin a finished function.
func putPathRun(pr *pathRun) {
	pr.Executor = nil
	pr.job = nil
	pr.slv = nil
	pr.occSaved = pr.occSaved[:0]
	pr.finished = pr.finished[:0]
	pr.outBuf = pr.outBuf[:0]
	pr.oneBuf[0] = nil
	clear(pr.callArgs)
	pr.instScratch.Cons = sym.Set{}
	pr.instScratch.Ret = nil
	clear(pr.instScratch.Changes) // keep the map's capacity
	pr.proj.Reset()
	clear(pr.entries) // freezeEntries leaves it empty; a test may not
	pr.entries = pr.entries[:0]
	pathRunPool.Put(pr)
}
