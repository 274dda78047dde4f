package ipp

import (
	"context"
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/sym"
)

func boundsOf(conds ...*sym.Expr) map[string]interval {
	return consBounds(sym.NewSet(conds))
}

func TestConsBoundsExtraction(t *testing.T) {
	a := sym.Arg("a")
	b := boundsOf(
		sym.Cond(a, ir.GE, sym.Const(2)),
		sym.Cond(a, ir.LT, sym.Const(10)),
	)
	iv, ok := b["[a]"]
	if !ok {
		t.Fatal("no bound for [a]")
	}
	if iv.lo != 2 || iv.hi != 9 {
		t.Errorf("interval [%d,%d], want [2,9]", iv.lo, iv.hi)
	}
}

func TestConsBoundsFlippedOrientation(t *testing.T) {
	// const ⋈ term: 5 < a means a ≥ 6.
	b := boundsOf(sym.Cond(sym.Const(5), ir.LT, sym.Arg("a")))
	iv := b["[a]"]
	if iv.lo != 6 || iv.hi != math.MaxInt64 {
		t.Errorf("interval [%d,%d], want [6,max]", iv.lo, iv.hi)
	}
}

func TestConsBoundsSkipsUninformative(t *testing.T) {
	a, c := sym.Arg("a"), sym.Arg("c")
	b := boundsOf(
		sym.Cond(a, ir.NE, sym.Const(3)), // disequality: no interval
		sym.Cond(a, ir.EQ, c),            // term-vs-term: no interval
	)
	if len(b) != 0 {
		t.Errorf("expected no bounds, got %v", b)
	}
}

func TestDisjointBounds(t *testing.T) {
	a := sym.Arg("a")
	le := boundsOf(sym.Cond(a, ir.LE, sym.Const(4)))
	ge := boundsOf(sym.Cond(a, ir.GE, sym.Const(5)))
	if !disjointBounds(le, ge) {
		t.Error("a ≤ 4 vs a ≥ 5 must be disjoint")
	}
	touching := boundsOf(sym.Cond(a, ir.GE, sym.Const(4)))
	if disjointBounds(le, touching) {
		t.Error("a ≤ 4 vs a ≥ 4 overlap at 4")
	}
	other := boundsOf(sym.Cond(sym.Arg("b"), ir.GE, sym.Const(9)))
	if disjointBounds(le, other) {
		t.Error("bounds on different terms are never disjoint")
	}
	if disjointBounds(le, nil) || disjointBounds(nil, nil) {
		t.Error("empty bound maps are never disjoint")
	}
}

// TestPrefilterAgreesWithSolver cross-checks the pre-filter against the
// decision procedure: whenever disjointBounds fires, the solver must find
// the conjunction UNSAT.
func TestPrefilterAgreesWithSolver(t *testing.T) {
	a := sym.Arg("a")
	slv := solver.New()
	consts := []int64{-2, 0, 1, 4}
	preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
	for _, p1 := range preds {
		for _, k1 := range consts {
			for _, p2 := range preds {
				for _, k2 := range consts {
					c1 := sym.Cond(a, p1, sym.Const(k1))
					c2 := sym.Cond(a, p2, sym.Const(k2))
					s1, s2 := sym.NewSet([]*sym.Expr{c1}), sym.NewSet([]*sym.Expr{c2})
					if disjointBounds(consBounds(s1), consBounds(s2)) && slv.Sat(s1.AndSet(s2)) {
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
	a := sym.Arg("dev")
	ret := sym.Ret()
	res := result("f",
		entry(0, nil, 1, pm, sym.Cond(a, ir.LE, sym.Const(4)), sym.Cond(ret, ir.EQ, sym.Const(0))),
		entry(1, nil, 1, pm, sym.Cond(a, ir.GE, sym.Const(0))),  // same signature as 0
		entry(2, nil, 0, nil, sym.Cond(a, ir.GE, sym.Const(5))), // prefilter vs 0, solver vs 1
		entry(3, nil, -1, pm, sym.Cond(ret, ir.EQ, sym.Const(0))),
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
