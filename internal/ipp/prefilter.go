package ipp

import (
	"math"
	"slices"

	"repro/internal/ir"
	"repro/internal/sym"
)

// interval is a saturating integer range [lo, hi].
type interval struct {
	lo, hi int64
}

// intersect narrows i by o and reports whether the result is non-empty.
func (i interval) intersect(o interval) (interval, bool) {
	if o.lo > i.lo {
		i.lo = o.lo
	}
	if o.hi < i.hi {
		i.hi = o.hi
	}
	return i, i.lo <= i.hi
}

// termBound confines one term, named by its interned ID, to an interval.
type termBound struct {
	id uint64
	iv interval
}

// appendBounds appends to dst, for the conjuncts of cs that have the shape
// term ⋈ const (either orientation), the interval each term is confined
// to: one bound per term, sorted by term ID. The expression language has
// no arithmetic, so any non-constant comparison operand is a single
// uninterpreted term — exactly one solver variable — which makes these
// bounds sound: if two entries confine a shared term to disjoint
// intervals, their conjunction is UNSAT and Fourier–Motzkin would return
// the same verdict. Disequalities and term-vs-term comparisons contribute
// nothing.
func appendBounds(dst []termBound, cs sym.Set) []termBound {
	start := len(dst)
	for _, c := range cs.Conds() {
		if c.Kind != sym.KCond {
			continue
		}
		term, pred := c.A, c.Pred
		k, ok := c.B.IsConst()
		if !ok {
			// Try the const ⋈ term orientation, flipping the predicate so
			// the term lands on the left.
			k, ok = c.A.IsConst()
			if !ok {
				continue
			}
			if _, bothConst := c.B.IsConst(); bothConst {
				continue // constant-folded elsewhere; nothing to learn
			}
			term, pred = c.B, pred.Flip()
		}
		var iv interval
		switch pred {
		case ir.EQ:
			iv = interval{lo: k, hi: k}
		case ir.LE:
			iv = interval{lo: math.MinInt64, hi: k}
		case ir.LT:
			if k == math.MinInt64 {
				continue
			}
			iv = interval{lo: math.MinInt64, hi: k - 1}
		case ir.GE:
			iv = interval{lo: k, hi: math.MaxInt64}
		case ir.GT:
			if k == math.MaxInt64 {
				continue
			}
			iv = interval{lo: k + 1, hi: math.MaxInt64}
		default: // NE carries no interval information
			continue
		}
		// Insert in ID order, or narrow the term's bound. An empty
		// within-entry intersection means the entry itself is UNSAT; keep
		// the empty interval — it makes every pairing with a bounded shared
		// term disjoint, matching the solver's verdict.
		id := term.ID()
		i := len(dst)
		for i > start && dst[i-1].id > id {
			i--
		}
		if i > start && dst[i-1].id == id {
			dst[i-1].iv, _ = dst[i-1].iv.intersect(iv)
			continue
		}
		dst = slices.Insert(dst, i, termBound{id: id, iv: iv})
	}
	return dst
}

// disjointBounds reports whether some term bounded in both lists has
// disjoint intervals — a syntactic proof that the conjunction of the two
// constraint sets is unsatisfiable. Both lists are sorted by term ID, so
// this is a merge.
func disjointBounds(a, b []termBound) bool {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].id < b[0].id:
			a = a[1:]
		case a[0].id > b[0].id:
			b = b[1:]
		default:
			if _, nonEmpty := a[0].iv.intersect(b[0].iv); !nonEmpty {
				return true
			}
			a, b = a[1:], b[1:]
		}
	}
	return false
}
