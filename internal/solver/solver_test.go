package solver

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

func set(tb *sym.Table, conds ...*sym.Expr) sym.Set {
	s := sym.True()
	for _, c := range conds {
		s = s.And(tb, c)
	}
	return s
}

func TestSatBasics(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	b := tb.Arg("b")
	tests := []struct {
		name string
		cs   sym.Set
		want bool
	}{
		{"empty", sym.True(), true},
		{"a>0", set(tb, tb.Cond(a, ir.GT, tb.Const(0))), true},
		{"a>0 and a<0", set(tb, tb.Cond(a, ir.GT, tb.Const(0)), tb.Cond(a, ir.LT, tb.Const(0))), false},
		{"a>=0 and a<=0", set(tb, tb.Cond(a, ir.GE, tb.Const(0)), tb.Cond(a, ir.LE, tb.Const(0))), true},
		{"a>0 and a<1 (integers)", set(tb, tb.Cond(a, ir.GT, tb.Const(0)), tb.Cond(a, ir.LT, tb.Const(1))), false},
		{"a=5 and a!=5", set(tb, tb.Cond(a, ir.EQ, tb.Const(5)), tb.Cond(a, ir.NE, tb.Const(5))), false},
		{"a!=0", set(tb, tb.Cond(a, ir.NE, tb.Const(0))), true},
		{"a<b and b<a", set(tb, tb.Cond(a, ir.LT, b), tb.Cond(b, ir.LT, a)), false},
		{"a<=b and b<=a", set(tb, tb.Cond(a, ir.LE, b), tb.Cond(b, ir.LE, a)), true},
		{"transitive", set(tb,
			tb.Cond(a, ir.LT, b),
			tb.Cond(b, ir.LT, tb.Const(3)),
			tb.Cond(a, ir.GT, tb.Const(5)),
		), false},
		{"null eq", set(tb, tb.Cond(a, ir.EQ, tb.Null()), tb.Cond(a, ir.NE, tb.Const(0))), false},
		{"const true", set(tb, tb.Cond(tb.Const(1), ir.LT, tb.Const(2))), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := New().Sat(tt.cs); got != tt.want {
				t.Errorf("Sat(%s) = %t, want %t", tt.cs, got, tt.want)
			}
		})
	}
}

func TestSatFigure2Inconsistency(t *testing.T) {
	tb := sym.NewTable()
	// The two inconsistent entries of foo(): both have cons
	// [dev]≠null ∧ [0]=0; their conjunction must be satisfiable.
	dev := tb.Arg("dev")
	cons := set(tb,
		tb.Cond(dev, ir.NE, tb.Null()),
		tb.Cond(tb.Ret(), ir.EQ, tb.Const(0)),
	)
	if !New().Sat(cons.AndSet(cons)) {
		t.Error("identical constraints must be co-satisfiable")
	}
}

func TestSatErrorCodeDisjoint(t *testing.T) {
	tb := sym.NewTable()
	// Entry A: [0] >= 0; entry B: [0] = -1. Conjunction unsat, so the
	// paths are distinguishable by return value — no IPP.
	r := tb.Ret()
	a := set(tb, tb.Cond(r, ir.GE, tb.Const(0)))
	b := set(tb, tb.Cond(r, ir.EQ, tb.Const(-1)))
	if New().Sat(a.AndSet(b)) {
		t.Error("[0]>=0 ∧ [0]=-1 must be unsatisfiable")
	}
}

func TestSatFieldChainsAreOpaqueTerms(t *testing.T) {
	tb := sym.NewTable()
	pm := tb.Field(tb.Arg("dev"), "pm")
	cs := set(tb,
		tb.Cond(pm, ir.GE, tb.Const(0)),
		tb.Cond(pm, ir.LT, tb.Const(0)),
	)
	if New().Sat(cs) {
		t.Error("same field chain must be one variable")
	}
	// Different chains are independent.
	other := tb.Field(tb.Arg("dev"), "usage")
	cs2 := set(tb,
		tb.Cond(pm, ir.GE, tb.Const(0)),
		tb.Cond(other, ir.LT, tb.Const(0)),
	)
	if !New().Sat(cs2) {
		t.Error("distinct field chains must be independent variables")
	}
}

func TestSatNestedBoolTerm(t *testing.T) {
	tb := sym.NewTable()
	// A condition used as an opaque 0/1 term: c >= 2 is unsat.
	c := tb.Cond(tb.Arg("a"), ir.GT, tb.Const(0))
	cs := set(tb, tb.Cond(c, ir.GE, tb.Const(2)))
	if New().Sat(cs) {
		t.Error("boolean term must be bounded to {0,1}")
	}
}

func TestSatCache(t *testing.T) {
	tb := sym.NewTable()
	s := New()
	cs := set(tb, tb.Cond(tb.Arg("a"), ir.GT, tb.Const(0)))
	s.Sat(cs)
	s.Sat(cs)
	if s.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", s.Stats().CacheHits)
	}
}

func TestSatCacheTermVsTerm(t *testing.T) {
	tb := sym.NewTable()
	// Term-vs-term comparisons take the full Fourier–Motzkin path; they
	// must be memoized too.
	s := New()
	cs := set(tb, tb.Cond(tb.Arg("a"), ir.GT, tb.Arg("b")))
	s.Sat(cs)
	s.Sat(cs)
	if s.Stats().CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", s.Stats().CacheHits)
	}
}

func TestSatManyDisequalities(t *testing.T) {
	tb := sym.NewTable()
	// a ∈ {0..3} with a ≠ 0, a ≠ 1, a ≠ 2, a ≠ 3: unsat, needs splits.
	a := tb.Arg("a")
	cs := set(tb,
		tb.Cond(a, ir.GE, tb.Const(0)),
		tb.Cond(a, ir.LE, tb.Const(3)),
		tb.Cond(a, ir.NE, tb.Const(0)),
		tb.Cond(a, ir.NE, tb.Const(1)),
		tb.Cond(a, ir.NE, tb.Const(2)),
		tb.Cond(a, ir.NE, tb.Const(3)),
	)
	if New().Sat(cs) {
		t.Error("pigeonhole disequalities must be unsat")
	}
}

// ---------------------------------------------------------------------------
// Property test: cross-check against brute force over a finite domain.

// randomAtom builds a random condition over nvars variables with constants
// in [-3, 3].
func randomAtom(tb *sym.Table, rng *rand.Rand, vars []*sym.Expr) *sym.Expr {
	a := vars[rng.Intn(len(vars))]
	var b *sym.Expr
	if rng.Intn(2) == 0 {
		b = tb.Const(int64(rng.Intn(7) - 3))
	} else {
		b = vars[rng.Intn(len(vars))]
	}
	preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
	return tb.Cond(a, preds[rng.Intn(len(preds))], b)
}

// bruteSat enumerates assignments over [-bound, bound]^n.
func bruteSat(conds []*sym.Expr, vars []*sym.Expr, bound int) bool {
	n := len(vars)
	assign := make(map[string]int64, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			for _, c := range conds {
				if !evalCond(c, assign) {
					return false
				}
			}
			return true
		}
		for v := -bound; v <= bound; v++ {
			assign[vars[i].Key()] = int64(v)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func evalCond(c *sym.Expr, assign map[string]int64) bool {
	a := evalTerm(c.A, assign)
	b := evalTerm(c.B, assign)
	return c.Pred.Eval(a, b)
}

func evalTerm(e *sym.Expr, assign map[string]int64) int64 {
	if v, ok := e.IsConst(); ok {
		return v
	}
	return assign[e.Key()]
}

func TestPropertySolverMatchesBruteForce(t *testing.T) {
	tb := sym.NewTable()
	rng := rand.New(rand.NewSource(20160402)) // ASPLOS'16 date
	vars := []*sym.Expr{tb.Arg("a"), tb.Arg("b"), tb.Arg("c")}
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(5)
		cs := sym.True()
		var conds []*sym.Expr
		for i := 0; i < n; i++ {
			c := randomAtom(tb, rng, vars)
			if c.Kind != sym.KCond {
				continue // folded to a constant
			}
			cs = cs.And(tb, c)
			conds = append(conds, c)
		}
		got := New().Sat(cs)
		// Constants are in [-3,3] and there are ≤5 unit-coefficient
		// constraints, so any satisfiable system has a witness within
		// [-9, 9] (each FM combination shifts bounds by at most the sum
		// of constants).
		want := bruteSat(conds, vars, 9)
		if got != want {
			t.Fatalf("trial %d: Sat(%s) = %t, brute force = %t", trial, cs, got, want)
		}
	}
}

func TestPropertyUnsatHasNoWitness(t *testing.T) {
	tb := sym.NewTable()
	// Directed property: whenever the solver says UNSAT, brute force over a
	// wide domain must find nothing (soundness of UNSAT answers).
	rng := rand.New(rand.NewSource(99))
	vars := []*sym.Expr{tb.Arg("x"), tb.Arg("y")}
	for trial := 0; trial < 300; trial++ {
		cs := sym.True()
		var conds []*sym.Expr
		for i := 0; i < 4; i++ {
			c := randomAtom(tb, rng, vars)
			if c.Kind != sym.KCond {
				continue
			}
			cs = cs.And(tb, c)
			conds = append(conds, c)
		}
		if !New().Sat(cs) && bruteSat(conds, vars, 12) {
			t.Fatalf("solver UNSAT but witness exists for %s", cs)
		}
	}
}

func BenchmarkSolverTypicalEntry(b *testing.B) {
	tb := sym.NewTable()
	dev := tb.Arg("dev")
	r := tb.Ret()
	cs := set(tb,
		tb.Cond(dev, ir.NE, tb.Null()),
		tb.Cond(r, ir.GE, tb.Const(0)),
		tb.Cond(r, ir.LE, tb.Const(0)),
		tb.Cond(tb.Field(dev, "pm"), ir.GE, tb.Const(0)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		s.Sat(cs)
	}
}

func TestSplitBudgetGivesUpConservatively(t *testing.T) {
	tb := sym.NewTable()
	// With only one split allowed, the pigeonhole system cannot be refuted
	// and the solver must answer SAT (the conservative direction: a wrong
	// SAT can only create a false positive, never hide an IPP).
	a := tb.Arg("a")
	cs := set(tb,
		tb.Cond(a, ir.GE, tb.Const(0)),
		tb.Cond(a, ir.LE, tb.Const(3)),
		tb.Cond(a, ir.NE, tb.Const(0)),
		tb.Cond(a, ir.NE, tb.Const(1)),
		tb.Cond(a, ir.NE, tb.Const(2)),
		tb.Cond(a, ir.NE, tb.Const(3)),
	)
	s := NewWithCache(Limits{MaxSplits: 1}, NewCache())
	if !s.Sat(cs) {
		t.Fatal("budget-limited solver must give up toward SAT")
	}
	if s.Stats().GaveUp == 0 {
		t.Error("GaveUp counter not incremented")
	}
}

// TestSharedCacheSolversKeepLimits pins the property the per-run budget
// plumbing relies on: every worker's solver, built over the run's shared
// cache, carries the configured limits, so a per-query budget set once in
// core.Options governs the whole run.
func TestSharedCacheSolversKeepLimits(t *testing.T) {
	want := Limits{MaxConstraints: 17, MaxSplits: 2}
	if got := NewWithCache(want, NewCache()).Limits(); got != want {
		t.Errorf("NewWithCache limits = %+v, want %+v", got, want)
	}
	// Zero fields normalize to the documented defaults everywhere.
	d := New().Limits()
	if d.MaxConstraints != defaultMaxConstraints || d.MaxSplits != defaultMaxSplits {
		t.Errorf("default limits: %+v", d)
	}
}

// TestDisableCache checks that solvers built over their own caches, as
// New builds them and as TestCacheTransparent's fresh solvers are, share
// nothing: each answers the same query afresh, with no cache hit.
func TestDisableCache(t *testing.T) {
	tb := sym.NewTable()
	cs := set(tb, tb.Cond(tb.Arg("a"), ir.GT, tb.Const(0)))
	s1, s2 := New(), NewWithCache(Limits{}, NewCache())
	if !s1.Sat(cs) || !s2.Sat(cs) {
		t.Fatal("a > 0 should be SAT on both solvers")
	}
	for i, s := range []*Solver{s1, s2} {
		if s.Stats().CacheHits != 0 {
			t.Errorf("solver %d: cache hits across separate caches: %d", i, s.Stats().CacheHits)
		}
		if s.Stats().Queries != 1 || s.Stats().Sat != 1 {
			t.Errorf("solver %d: stats %+v", i, s.Stats())
		}
	}
}

func TestConstantDisequalities(t *testing.T) {
	tb := sym.NewTable()
	// 3 != 3 is false; 3 != 4 is true.
	bad := set(tb, tb.Cond(tb.Const(3), ir.NE, tb.Const(3)))
	if bad.HasFalse() {
		// Folded at construction — also acceptable.
	} else if New().Sat(bad) {
		t.Error("3 != 3 must be unsat")
	}
	good := set(tb, tb.Cond(tb.Const(3), ir.NE, tb.Const(4)), tb.Cond(tb.Arg("a"), ir.GT, tb.Const(0)))
	if !New().Sat(good) {
		t.Error("3 != 4 ∧ a > 0 must be sat")
	}
}
