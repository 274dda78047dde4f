package solver

import (
	"repro/internal/obs"
	"repro/internal/sym"
)

// PairBatch batches satisfiability queries of the form base ∧ other with a
// fixed base — the shape of every Step III pair check, where one candidate
// entry is compared against a run of kept entries. A batch is equivalent
// to calling Sat(base.AndSet(other)) for each pair — same verdicts, same
// counters per issued query, same shared-cache entries — but:
//
//   - the conjunction's cache key is built by merging the two sorted
//     condition lists into a reused buffer, so a shared-cache hit costs no
//     allocation and the conjunction Set is only materialized on a miss;
//   - verdicts are memoized per batch, so a repeated other-set (common
//     inside a changes-signature bucket, whose entries often share
//     constraint structure) probes the shared cache once per bucket run
//     instead of once per pair, and issues no additional query.
//
// Obtain a batch with Solver.Pairs; at most one batch per solver is live
// at a time (Pairs resets and returns the solver's scratch batch).
type PairBatch struct {
	s    *Solver
	base sym.Set
	memo map[string]bool
	buf  []byte
}

// Pairs starts a query batch with the given base constraint set. The
// returned batch borrows the solver's scratch: starting a new batch
// invalidates the previous one.
func (s *Solver) Pairs(base sym.Set) *PairBatch {
	pb := &s.pairs
	pb.s = s
	pb.base = base
	if pb.memo == nil {
		pb.memo = make(map[string]bool, 8)
	} else {
		clear(pb.memo)
	}
	return pb
}

// Sat reports whether base ∧ other is satisfiable. Verdicts and give-up
// accounting are identical to s.Sat(base.AndSet(other)); only the number
// of cache probes and allocations differ. When per-query timing is on
// (tracing), it delegates to the plain path so observability output is
// unchanged.
func (pb *PairBatch) Sat(other sym.Set) bool {
	s := pb.s
	if s.obs.QueryTiming() {
		return s.Sat(pb.base.AndSet(other))
	}
	if pb.base.HasFalse() || other.HasFalse() {
		return s.Sat(pb.base.AndSet(other)) // preserve the early-Unsat path
	}
	buf, n := sym.AppendMergedCacheKey(pb.buf[:0], pb.base, other)
	pb.buf = buf
	if n == 0 {
		s.stats.Queries++
		s.obs.Count(obs.MSolverQueries, 1)
		s.noteVerdict(true, false)
		return true
	}
	if v, ok := pb.memo[string(buf)]; ok {
		return v // repeated pair within the batch: no query issued
	}
	s.stats.Queries++
	s.obs.Count(obs.MSolverQueries, 1)
	res, gu, ok := s.cache.Get(buf)
	if ok {
		s.stats.CacheHits++
		s.obs.Count(obs.MSolverCacheHits, 1)
	} else {
		res = s.solveTracked(pb.base.AndSet(other))
		gu = s.curGaveUp
		s.cache.Put(buf, res, gu)
	}
	s.noteVerdict(res, gu)
	pb.memo[string(buf)] = res
	return res
}
