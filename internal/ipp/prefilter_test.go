package ipp

import (
	"context"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/sym"
)

func boundsOf(tb *sym.Table, conds ...*sym.Expr) []termBound {
	return appendBounds(nil, sym.NewSet(tb, conds))
}

// boundOn returns the bound on term in b.
func boundOn(b []termBound, term *sym.Expr) (interval, bool) {
	for _, tb := range b {
		if tb.id == term.ID() {
			return tb.iv, true
		}
	}
	return interval{}, false
}

func TestConsBoundsExtraction(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	b := boundsOf(tb,
		tb.Cond(a, ir.GE, tb.Const(2)),
		tb.Cond(a, ir.LT, tb.Const(10)),
	)
	iv, ok := boundOn(b, a)
	if !ok {
		t.Fatal("no bound for [a]")
	}
	if iv.lo != 2 || iv.hi != 9 {
		t.Errorf("interval [%d,%d], want [2,9]", iv.lo, iv.hi)
	}
}

func TestConsBoundsFlippedOrientation(t *testing.T) {
	tb := sym.NewTable()
	// const ⋈ term: 5 < a means a ≥ 6.
	b := boundsOf(tb, tb.Cond(tb.Const(5), ir.LT, tb.Arg("a")))
	iv, _ := boundOn(b, tb.Arg("a"))
	if iv.lo != 6 || iv.hi != math.MaxInt64 {
		t.Errorf("interval [%d,%d], want [6,max]", iv.lo, iv.hi)
	}
}

func TestConsBoundsSkipsUninformative(t *testing.T) {
	tb := sym.NewTable()
	a, c := tb.Arg("a"), tb.Arg("c")
	b := boundsOf(tb,
		tb.Cond(a, ir.NE, tb.Const(3)), // disequality: no interval
		tb.Cond(a, ir.EQ, c),           // term-vs-term: no interval
	)
	if len(b) != 0 {
		t.Errorf("expected no bounds, got %v", b)
	}
}

func TestDisjointBounds(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	le := boundsOf(tb, tb.Cond(a, ir.LE, tb.Const(4)))
	ge := boundsOf(tb, tb.Cond(a, ir.GE, tb.Const(5)))
	if !disjointBounds(le, ge) {
		t.Error("a ≤ 4 vs a ≥ 5 must be disjoint")
	}
	touching := boundsOf(tb, tb.Cond(a, ir.GE, tb.Const(4)))
	if disjointBounds(le, touching) {
		t.Error("a ≤ 4 vs a ≥ 4 overlap at 4")
	}
	other := boundsOf(tb, tb.Cond(tb.Arg("b"), ir.GE, tb.Const(9)))
	if disjointBounds(le, other) {
		t.Error("bounds on different terms are never disjoint")
	}
	if disjointBounds(le, nil) || disjointBounds(nil, nil) {
		t.Error("empty bound maps are never disjoint")
	}
}

// TestBoundsSortedByTerm: an entry's bounds come one per term in term-ID
// order, repeated conjuncts on a term narrow one bound, and the merge in
// disjointBounds finds a shared term wherever it sits in either list.
func TestBoundsSortedByTerm(t *testing.T) {
	tb := sym.NewTable()
	terms := []*sym.Expr{tb.Arg("p"), tb.Arg("q"), tb.Arg("r"), tb.Ret()}
	var conds []*sym.Expr
	for i := len(terms) - 1; i >= 0; i-- {
		conds = append(conds, tb.Cond(terms[i], ir.GE, tb.Const(int64(i))))
	}
	conds = append(conds, tb.Cond(terms[1], ir.LE, tb.Const(7)))
	b := boundsOf(tb, conds...)
	if len(b) != len(terms) {
		t.Fatalf("%d bounds, want %d", len(b), len(terms))
	}
	for i := 1; i < len(b); i++ {
		if b[i-1].id >= b[i].id {
			t.Fatalf("bounds not sorted by term ID: %v", b)
		}
	}
	if iv, _ := boundOn(b, terms[1]); iv.lo != 1 || iv.hi != 7 {
		t.Errorf("narrowed bound [%d,%d], want [1,7]", iv.lo, iv.hi)
	}
	for _, term := range terms {
		other := boundsOf(tb, tb.Cond(term, ir.LT, tb.Const(-1)))
		if !disjointBounds(b, other) || !disjointBounds(other, b) {
			t.Errorf("%s < -1 must be disjoint from %v", term, b)
		}
	}
}

// TestPrefilterAgreesWithSolver cross-checks the pre-filter against the
// decision procedure: whenever disjointBounds fires, the solver must find
// the conjunction UNSAT.
func TestPrefilterAgreesWithSolver(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	slv := solver.New()
	consts := []int64{-2, 0, 1, 4}
	preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
	for _, p1 := range preds {
		for _, k1 := range consts {
			for _, p2 := range preds {
				for _, k2 := range consts {
					c1 := tb.Cond(a, p1, tb.Const(k1))
					c2 := tb.Cond(a, p2, tb.Const(k2))
					s1, s2 := sym.NewSet(tb, []*sym.Expr{c1}), sym.NewSet(tb, []*sym.Expr{c2})
					if disjointBounds(appendBounds(nil, s1), appendBounds(nil, s2)) && slv.Sat(s1.AndSet(s2)) {
						t.Errorf("prefilter claims UNSAT but solver says SAT: %s ∧ %s", c1, c2)
					}
				}
			}
		}
	}
}

// TestBucketingPreservesReports runs Step III and its all-pairs reference
// over an entry mix that exercises both the same-signature skip and the
// contradiction pre-filter, and requires identical reports and summaries.
func TestBucketingPreservesReports(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("dev")
	ret := tb.Ret()
	res := result(tb, "f",
		entry(tb, 0, nil, 1, pm(tb), tb.Cond(a, ir.LE, tb.Const(4)), tb.Cond(ret, ir.EQ, tb.Const(0))),
		entry(tb, 1, nil, 1, pm(tb), tb.Cond(a, ir.GE, tb.Const(0))), // same signature as 0
		entry(tb, 2, nil, 0, nil, tb.Cond(a, ir.GE, tb.Const(5))),    // prefilter vs 0, solver vs 1
		entry(tb, 3, nil, -1, pm(tb), tb.Cond(ret, ir.EQ, tb.Const(0))),
	)
	repOn, sumOn := CheckWith(context.Background(), res, solver.New(), Options{})
	repOff, sumOff, _ := checkAllPairs(res, solver.New(), Options{})
	if len(repOn) != len(repOff) {
		t.Fatalf("report counts differ: bucketing %d, plain %d", len(repOn), len(repOff))
	}
	for i := range repOn {
		if repOn[i].String() != repOff[i].String() || repOn[i].Detail() != repOff[i].Detail() {
			t.Errorf("report %d differs:\n%s\nvs\n%s", i, repOn[i].Detail(), repOff[i].Detail())
		}
	}
	if sumOn.String() != sumOff.String() {
		t.Errorf("summaries differ:\n%s\nvs\n%s", sumOn, sumOff)
	}
	if len(repOn) == 0 {
		t.Error("expected at least one report from the inconsistent mix")
	}
}
