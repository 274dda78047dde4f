// Package solver decides satisfiability of conjunctions of linear integer
// arithmetic conditions over uninterpreted terms — the constraint language
// RID uses for path constraints and summary entries (the paper uses Z3 with
// the LIA theory; this is a from-scratch replacement covering the fragment
// RID emits).
//
// Every non-constant term (argument, return value, local, fresh symbol,
// field chain) becomes an integer variable named by its canonical key; null
// is the constant 0. Conditions translate to inequalities Σcᵢxᵢ ≤ k:
// equalities become two inequalities, strict comparisons tighten by one
// (integers), and disequalities case-split. The core decision procedure is
// Fourier–Motzkin elimination, which is exact over the integers when one of
// the paired coefficients is ±1 — true for every constraint the analysis
// generates. Non-unit pairs fall back to the real shadow, which
// over-approximates satisfiability (may report SAT for an integer-UNSAT
// system); for RID this errs toward a false positive, never a missed
// inconsistency pair.
package solver

import (
	"math"
	"sort"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sym"
)

// Limits bound the work a single query may do. Zero values select the
// defaults.
type Limits struct {
	MaxConstraints int // give up (answer SAT) beyond this many inequalities
	MaxSplits      int // max disequality case-splits per query
}

const (
	defaultMaxConstraints = 4096
	defaultMaxSplits      = 12
)

// Normalized returns the limits with zero fields replaced by the solver's
// defaults — the effective per-query bounds a Solver built from l would
// use. Callers that fingerprint a configuration (the persistent summary
// store) normalize first, so an explicit default and an unset field hash
// identically.
func (l Limits) Normalized() Limits {
	if l.MaxConstraints == 0 {
		l.MaxConstraints = defaultMaxConstraints
	}
	if l.MaxSplits == 0 {
		l.MaxSplits = defaultMaxSplits
	}
	return l
}

// Stats counts solver activity; useful in benchmarks and ablations.
type Stats struct {
	Queries   int
	CacheHits int
	Sat       int
	Unsat     int
	GaveUp    int // budget exceeded, answered SAT conservatively
}

// Add accumulates o into s (merging per-worker counters).
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.CacheHits += o.CacheHits
	s.Sat += o.Sat
	s.Unsat += o.Unsat
	s.GaveUp += o.GaveUp
}

// Sub returns s − o componentwise — the delta between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Queries:   s.Queries - o.Queries,
		CacheHits: s.CacheHits - o.CacheHits,
		Sat:       s.Sat - o.Sat,
		Unsat:     s.Unsat - o.Unsat,
		GaveUp:    s.GaveUp - o.GaveUp,
	}
}

// Solver answers satisfiability queries with memoization. A Solver's
// counters are not safe for concurrent use — create one per worker — but
// the underlying Cache may be shared across workers (see NewWithCache).
type Solver struct {
	limits  Limits
	cache   *Cache
	stats   Stats
	obs     *obs.Obs // optional; counters land here atomically per query
	fn      string   // current function label for query spans
	noQuick bool     // skip quickSolve (differential testing only)

	// Per-query state and reusable scratch. A Solver is single-goroutine
	// (one per worker), so scratch reuse is race-free by construction; the
	// reset contract is that every public query entry point leaves the
	// scratch ready for the next query (buffers re-sliced to zero length,
	// maps cleared before use).
	curGaveUp bool           // set by gaveUp() while solving one query
	keyBuf    []byte         // cache-key construction buffer
	lhsBuf    []byte         // normalize: left-hand-side key buffer
	lhsKeys   []string       // normalize: coefficient-key sort buffer
	normSeen  map[uint64]int // normalize: lhs-key hash → index into the output
	boolVars  map[string]bool
	varSeen   map[string]bool // collectVars: dedup set
	varBuf    []string        // collectVars: result buffer
	elimLo    []linear        // eliminate: lower-bound partition
	elimHi    []linear        // eliminate: upper-bound partition
	pairs     PairBatch       // scratch for Pairs (one live batch per solver)
}

// New returns a solver with default limits and a private cache.
func New() *Solver { return NewWithCache(Limits{}, NewCache()) }

// NewWithCache returns a solver with explicit limits backed by the given
// shared cache. A nil cache disables memoization. Solvers sharing a cache
// must use identical limits, so cached verdicts are interchangeable.
func NewWithCache(l Limits, c *Cache) *Solver {
	return &Solver{limits: l.Normalized(), cache: c}
}

// SetObs attaches an observer: every query increments the registry
// counters at the event site, and — when query timing is enabled — emits a
// PhaseSolver span labeled with the current function (see SetFunction).
// A nil observer detaches.
func (s *Solver) SetObs(o *obs.Obs) { s.obs = o }

// SetFunction sets the function label attributed to subsequent queries.
func (s *Solver) SetFunction(fn string) { s.fn = fn }

// Stats returns a copy of the accumulated counters.
func (s *Solver) Stats() Stats { return s.stats }

// Limits returns the effective (normalized) per-query limits, so callers
// can verify that every worker's solver got the configured bounds.
func (s *Solver) Limits() Limits { return s.limits }

// Sat reports whether the conjunction is satisfiable over the integers.
func (s *Solver) Sat(cs sym.Set) bool {
	if s.obs.QueryTiming() {
		sp := s.obs.StartQuery(s.fn)
		v := s.sat(cs)
		sp.End()
		return v
	}
	return s.sat(cs)
}

func (s *Solver) sat(cs sym.Set) bool {
	s.stats.Queries++
	s.obs.Count(obs.MSolverQueries, 1)
	if cs.HasFalse() {
		s.stats.Unsat++
		s.obs.Count(obs.MSolverUnsat, 1)
		return false
	}
	if cs.Len() == 0 {
		s.stats.Sat++
		s.obs.Count(obs.MSolverSat, 1)
		return true
	}
	if s.cache != nil {
		s.keyBuf = cs.AppendCacheKey(s.keyBuf[:0])
		if v, gu, ok := s.cache.Get(s.keyBuf); ok {
			s.stats.CacheHits++
			s.obs.Count(obs.MSolverCacheHits, 1)
			if gu {
				// Cache-transparent give-up accounting: the stored verdict
				// was reached by giving up, so this query counts as a
				// give-up too. GaveUp thereby depends only on the query
				// stream, not on which worker populated the cache —
				// per-function give-up diagnostics stay deterministic
				// under work stealing.
				s.noteGaveUp()
			}
			return v
		}
	}
	res := s.solveTracked(cs)
	if s.cache != nil {
		s.cache.Put(s.keyBuf, res, s.curGaveUp)
	}
	if s.curGaveUp {
		s.noteGaveUp()
	}
	if res {
		s.stats.Sat++
		s.obs.Count(obs.MSolverSat, 1)
	} else {
		s.stats.Unsat++
		s.obs.Count(obs.MSolverUnsat, 1)
	}
	return res
}

// solveTracked runs solve with the per-query give-up flag reset, leaving
// s.curGaveUp reporting whether this query exceeded any budget.
func (s *Solver) solveTracked(cs sym.Set) bool {
	s.curGaveUp = false
	return s.solve(cs)
}

// gaveUp flags the in-flight query as budget-exceeded (answered SAT
// conservatively). A query counts at most once no matter how many
// sub-searches hit a limit.
func (s *Solver) gaveUp() {
	s.curGaveUp = true
}

// noteGaveUp records one gave-up query in the counters.
func (s *Solver) noteGaveUp() {
	s.stats.GaveUp++
	s.obs.Count(obs.MSolverGaveUp, 1)
}

// ---------------------------------------------------------------------------
// Translation

// linear is Σ coef[v]·v ≤ k. Zero-coefficient entries are never stored.
type linear struct {
	coef map[string]int64
	k    int64
}

func (l linear) clone() linear {
	c := make(map[string]int64, len(l.coef))
	for k, v := range l.coef {
		c[k] = v
	}
	return linear{coef: c, k: l.k}
}

// problem is a conjunction of inequalities plus pending disequalities
// (diff ≠ 0 encoded as the linear form of A−B).
type problem struct {
	ineqs []linear
	diseq []linear // each means: the linear form ≠ 0 (k holds −constant)
}

// addTerm folds expression e into l with the given sign, registering
// opaque boolean terms (nested conditions) in boolVars.
func addTerm(l *linear, e *sym.Expr, sign int64, boolVars map[string]bool) {
	if v, ok := e.IsConst(); ok {
		l.k -= sign * v // move constants to the right-hand side
		return
	}
	key := e.Key()
	if e.Kind == sym.KCond {
		boolVars[key] = true
	}
	l.coef[key] += sign
	if l.coef[key] == 0 {
		delete(l.coef, key)
	}
}

// translate converts the condition set to a problem. Conditions that the
// condition language cannot express linearly never reach here: the lowering
// already abstracted them to fresh values. The boolVars map is solver
// scratch (cleared on entry); it never escapes the call.
func (s *Solver) translate(cs sym.Set) problem {
	var p problem
	if s.boolVars == nil {
		s.boolVars = make(map[string]bool, 8)
	} else {
		clear(s.boolVars)
	}
	boolVars := s.boolVars
	for _, c := range cs.Conds() {
		if c.Kind != sym.KCond {
			// A bare term used as a truth value was coerced by AsCond, so
			// this only happens for constants; false was caught earlier.
			continue
		}
		diff := linear{coef: make(map[string]int64)}
		addTerm(&diff, c.A, 1, boolVars)
		addTerm(&diff, c.B, -1, boolVars)
		switch c.Pred {
		case ir.LE:
			p.ineqs = append(p.ineqs, diff)
		case ir.LT:
			d := diff
			d.k--
			p.ineqs = append(p.ineqs, d)
		case ir.GE:
			p.ineqs = append(p.ineqs, neg(diff))
		case ir.GT:
			d := neg(diff)
			d.k--
			p.ineqs = append(p.ineqs, d)
		case ir.EQ:
			p.ineqs = append(p.ineqs, diff, neg(diff))
		case ir.NE:
			p.diseq = append(p.diseq, diff)
		}
	}
	// Opaque boolean terms range over {0,1}.
	for v := range boolVars {
		lo := linear{coef: map[string]int64{v: -1}, k: 0} // −v ≤ 0
		hi := linear{coef: map[string]int64{v: 1}, k: 1}  // v ≤ 1
		p.ineqs = append(p.ineqs, lo, hi)
	}
	return p
}

// neg returns the inequality for −l ≤ −k−? : specifically from t ≤ k it
// builds −t ≤ −k, used to encode t ≥ k as a ≤ form.
func neg(l linear) linear {
	c := make(map[string]int64, len(l.coef))
	for k, v := range l.coef {
		c[k] = -v
	}
	return linear{coef: c, k: -l.k}
}

// ---------------------------------------------------------------------------
// Decision procedure

func (s *Solver) solve(cs sym.Set) bool {
	if !s.noQuick {
		if v, ok := s.quickSolve(cs); ok {
			return v
		}
	}
	p := s.translate(cs)
	return s.solveSplit(p.ineqs, p.diseq, 0)
}

// quickSolve decides conjunctions whose conjuncts all have the shape
// term ⋈ const (either orientation) without building the linear system:
// each distinct term is then an independent integer variable, so the
// conjunction is satisfiable iff every term's interval — after applying
// its ≠ exclusions — is non-empty. This is exact (it agrees with
// Fourier–Motzkin plus disequality splitting on this fragment) and covers
// the bulk of path-feasibility queries, which compare arguments, fields,
// and call results against constants.
//
// The second return is false when the query is out of scope: a conjunct
// compares two non-constant terms, or deciding it exactly would exceed a
// budget under which the full procedure gives up conservatively (the
// verdicts must stay identical to the slow path, give-ups included).
// quickSolve bounds: small fixed capacities keep the whole fast path on
// the stack; queries that exceed them fall through to the full procedure.
const (
	quickMaxTerms = 16
	quickMaxNE    = 16
)

func (s *Solver) quickSolve(cs sym.Set) (verdict, handled bool) {
	conds := cs.Conds()
	if len(conds)*2 > s.limits.MaxConstraints {
		return false, false // slow path may give up; let it
	}
	var (
		terms  [quickMaxTerms]*sym.Expr
		lo, hi [quickMaxTerms]int64
		neTerm [quickMaxNE]int
		neVal  [quickMaxNE]int64
	)
	nTerms, nNE := 0, 0
	for _, c := range conds {
		if c.Kind != sym.KCond {
			continue // constants; translate skips these too
		}
		term, pred := c.A, c.Pred
		k, ok := c.B.IsConst()
		if !ok {
			k, ok = c.A.IsConst()
			if !ok {
				return false, false // term-vs-term: needs elimination
			}
			term, pred = c.B, pred.Flip()
		}
		if term.ID() == 0 {
			// Uninterned terms have no cheap identity; use the full
			// procedure (only reachable with interning ablated off).
			return false, false
		}
		ti := -1
		for i := 0; i < nTerms; i++ {
			if terms[i] == term { // interned: structural equality is identity
				ti = i
				break
			}
		}
		if ti < 0 {
			if nTerms == quickMaxTerms {
				return false, false
			}
			ti = nTerms
			nTerms++
			terms[ti] = term
			lo[ti], hi[ti] = math.MinInt64, math.MaxInt64
			if term.Kind == sym.KCond {
				lo[ti], hi[ti] = 0, 1 // opaque boolean terms range over {0,1}
			}
		}
		switch pred {
		case ir.EQ:
			if k > lo[ti] {
				lo[ti] = k
			}
			if k < hi[ti] {
				hi[ti] = k
			}
		case ir.LE:
			if k < hi[ti] {
				hi[ti] = k
			}
		case ir.LT:
			if k == math.MinInt64 {
				return false, false
			}
			if k-1 < hi[ti] {
				hi[ti] = k - 1
			}
		case ir.GE:
			if k > lo[ti] {
				lo[ti] = k
			}
		case ir.GT:
			if k == math.MaxInt64 {
				return false, false
			}
			if k+1 > lo[ti] {
				lo[ti] = k + 1
			}
		case ir.NE:
			if nNE == quickMaxNE {
				return false, false
			}
			neTerm[nNE] = ti
			neVal[nNE] = k
			nNE++
		}
	}
	if nNE > s.limits.MaxSplits {
		return false, false // slow path would give up; preserve that
	}
	for ti := 0; ti < nTerms; ti++ {
		if lo[ti] > hi[ti] {
			return false, true
		}
		if lo[ti] == math.MinInt64 || hi[ti] == math.MaxInt64 {
			continue // an infinite side always escapes finite exclusions
		}
		nExcl := 0
		for j := 0; j < nNE; j++ {
			if neTerm[j] == ti {
				nExcl++
			}
		}
		if nExcl == 0 {
			continue
		}
		// uint64 subtraction is exact for any int64 pair with hi ≥ lo; the
		// +1 cannot wrap because the full-range case was handled above.
		width := uint64(hi[ti]) - uint64(lo[ti]) + 1
		if width > uint64(nExcl) {
			continue // more values than exclusions: something survives
		}
		// Tiny finite range (≤ MaxSplits values): test each one.
		sat := false
		for v := lo[ti]; ; v++ {
			excluded := false
			for j := 0; j < nNE; j++ {
				if neTerm[j] == ti && neVal[j] == v {
					excluded = true
					break
				}
			}
			if !excluded {
				sat = true
				break
			}
			if v == hi[ti] {
				break
			}
		}
		if !sat {
			return false, true
		}
	}
	return true, true
}

// solveSplit resolves disequalities by case analysis, then runs FM.
func (s *Solver) solveSplit(ineqs []linear, diseq []linear, depth int) bool {
	// Fast path: a disequality whose linear part is all-constant decides
	// itself.
	for len(diseq) > 0 {
		d := diseq[0]
		if len(d.coef) == 0 {
			// 0 ≠ k form: the original condition was A−B ≠ 0 with constant
			// difference −k... concretely "0 ≤ k is the constant"; d holds
			// A−B with constants folded into k as −(A−B)const. A−B ≠ 0 with
			// A−B constant = −d.k... the disequality is violated iff d.k == 0.
			if d.k == 0 {
				return false // constant difference of zero: A ≠ B is false
			}
			diseq = diseq[1:]
			continue
		}
		break
	}
	if len(diseq) == 0 {
		return s.fm(ineqs)
	}
	if depth >= s.limits.MaxSplits {
		// Too many splits: drop remaining disequalities (weakening the
		// system over-approximates satisfiability).
		s.gaveUp()
		return s.fm(ineqs)
	}
	d := diseq[0]
	rest := diseq[1:]
	// Case 1: d ≤ −1 (strictly negative).
	lo := d.clone()
	lo.k--
	if s.solveSplit(append(append([]linear{}, ineqs...), lo), rest, depth+1) {
		return true
	}
	// Case 2: d ≥ 1 (strictly positive): −d ≤ −1.
	hi := neg(d)
	hi.k--
	return s.solveSplit(append(append([]linear{}, ineqs...), hi), rest, depth+1)
}

// fm runs Fourier–Motzkin elimination and reports satisfiability.
func (s *Solver) fm(ineqs []linear) bool {
	work := s.normalize(ineqs)
	for {
		// Constant contradictions?
		for _, l := range work {
			if len(l.coef) == 0 && l.k < 0 {
				return false
			}
		}
		vars := s.collectVars(work)
		if len(vars) == 0 {
			return true
		}
		if len(work) > s.limits.MaxConstraints {
			s.gaveUp()
			return true
		}
		v := pickVar(work, vars)
		work = s.eliminate(work, v)
		work = s.normalize(work)
	}
}

// normalize drops tautologies, deduplicates identical left-hand sides
// keeping the tightest bound, and detects nothing else. The result is
// built in place over the input slice (every caller owns its ineqs and
// never rereads the pre-normalized contents), and the lhs-key map and
// buffers are solver scratch, cleared on entry: the map lookup converts
// the byte buffer in place, so only distinct left-hand sides materialize
// a key string. One normalize runs per elimination round, so these were
// the hottest allocations in the solve path.
func (s *Solver) normalize(ineqs []linear) []linear {
	if s.normSeen == nil {
		s.normSeen = make(map[uint64]int, 16)
	} else {
		clear(s.normSeen)
	}
	out := ineqs[:0]
	for _, l := range ineqs {
		if len(l.coef) == 0 {
			if l.k >= 0 {
				continue // 0 ≤ k: tautology
			}
			ineqs[0] = l // contradiction dominates
			return ineqs[:1]
		}
		// Deduplicate by a hash of the canonical lhs key, verified against
		// the stored constraint's coefficients. A hash collision with a
		// different lhs just skips the dedup for that constraint — keeping
		// both bounds is logically equivalent to keeping the tighter one,
		// so the verdict is unchanged, and FNV is deterministic so every
		// run agrees. The win: no per-lhs key string is ever allocated.
		s.lhsBuf = s.appendLHSKey(s.lhsBuf[:0], l)
		h := fnv1a(s.lhsBuf)
		if idx, ok := s.normSeen[h]; ok && sameLHS(l.coef, out[idx].coef) {
			if l.k < out[idx].k {
				out[idx] = l
			}
			continue
		} else if !ok {
			s.normSeen[h] = len(out)
		}
		out = append(out, l)
	}
	return out
}

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// sameLHS reports whether two constraints have identical left-hand sides.
func sameLHS(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// appendLHSKey appends l's canonical left-hand-side key (sorted
// variable:coefficient pairs) to b, reusing the solver's sort buffer.
func (s *Solver) appendLHSKey(b []byte, l linear) []byte {
	keys := s.lhsKeys[:0]
	for k := range l.coef {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.lhsKeys = keys
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, ':')
		b = appendInt(b, l.coef[k])
		b = append(b, ';')
	}
	return b
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// collectVars lists the variables of the system, sorted. The returned
// slice and the dedup map are solver scratch: valid until the next
// collectVars call, which is always after the previous result is dead
// (one Fourier–Motzkin loop is live per solver at a time).
func (s *Solver) collectVars(ineqs []linear) []string {
	if s.varSeen == nil {
		s.varSeen = make(map[string]bool, 16)
	} else {
		clear(s.varSeen)
	}
	out := s.varBuf[:0]
	for _, l := range ineqs {
		for v := range l.coef {
			if !s.varSeen[v] {
				s.varSeen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	s.varBuf = out
	return out
}

// pickVar chooses the variable whose elimination produces the fewest new
// constraints (classic min-product heuristic), breaking ties by name for
// determinism.
func pickVar(ineqs []linear, vars []string) string {
	best := vars[0]
	bestCost := 1 << 62
	for _, v := range vars {
		var lo, hi int
		for _, l := range ineqs {
			c := l.coef[v]
			switch {
			case c > 0:
				hi++
			case c < 0:
				lo++
			}
		}
		cost := lo * hi
		if cost < bestCost {
			bestCost = cost
			best = v
		}
	}
	return best
}

// eliminate removes variable v by pairwise combination of its lower and
// upper bounds. With a unit coefficient on either side the combination is
// exact over ℤ; otherwise the real shadow is used (over-approximate).
// The survivors are compacted in place over the input (the caller owns
// it); the lower/upper partitions are solver scratch.
func (s *Solver) eliminate(ineqs []linear, v string) []linear {
	lowers, uppers := s.elimLo[:0], s.elimHi[:0]
	rest := ineqs[:0]
	for _, l := range ineqs {
		c := l.coef[v]
		switch {
		case c > 0:
			uppers = append(uppers, l) // c·v ≤ k − t
		case c < 0:
			lowers = append(lowers, l) // v ≥ (t − k)/(−c)
		default:
			rest = append(rest, l)
		}
	}
	s.elimLo, s.elimHi = lowers, uppers
	for _, up := range uppers {
		for _, lo := range lowers {
			cu := up.coef[v]  // > 0
			cl := -lo.coef[v] // > 0
			// cl·up + cu·lo eliminates v:
			// cl·(cu·v + tu) ≤ cl·ku  and  cu·(−cl·v + tl) ≤ cu·kl
			comb := linear{coef: make(map[string]int64), k: cl*up.k + cu*lo.k}
			for key, c := range up.coef {
				if key == v {
					continue
				}
				comb.coef[key] += cl * c
			}
			for key, c := range lo.coef {
				if key == v {
					continue
				}
				comb.coef[key] += cu * c
				if comb.coef[key] == 0 {
					delete(comb.coef, key)
				}
			}
			for key, c := range comb.coef {
				if c == 0 {
					delete(comb.coef, key)
				}
			}
			rest = append(rest, comb)
		}
	}
	return rest
}
