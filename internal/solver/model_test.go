package solver

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

// checkModel verifies an assignment against the original conditions.
func checkModel(t *testing.T, cs sym.Set, m map[string]int64) {
	t.Helper()
	evalTerm := func(e *sym.Expr) int64 {
		if v, ok := e.IsConst(); ok {
			return v
		}
		return m[e.Key()]
	}
	for _, c := range cs.Conds() {
		if c.Kind != sym.KCond {
			continue
		}
		// Nested boolean terms are opaque in the model; skip conditions on
		// them (they are bounded 0/1 but not directly evaluable here).
		if c.A.Kind == sym.KCond || c.B.Kind == sym.KCond {
			continue
		}
		if !c.Pred.Eval(evalTerm(c.A), evalTerm(c.B)) {
			t.Errorf("model %v violates %s", m, c)
		}
	}
}

func TestModelSimple(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	cs := set(tb,
		tb.Cond(a, ir.GT, tb.Const(2)),
		tb.Cond(a, ir.LT, tb.Const(5)),
	)
	s := New()
	m, ok := s.Model(cs)
	if !ok {
		t.Fatal("no model found")
	}
	checkModel(t, cs, m)
	if v := m["[a]"]; v != 3 && v != 4 {
		t.Errorf("[a] = %d", v)
	}
}

func TestModelUnsat(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	cs := set(tb,
		tb.Cond(a, ir.GT, tb.Const(2)),
		tb.Cond(a, ir.LT, tb.Const(2)),
	)
	if _, ok := New().Model(cs); ok {
		t.Fatal("model for unsat system")
	}
}

func TestModelDisequality(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	cs := set(tb,
		tb.Cond(a, ir.GE, tb.Const(0)),
		tb.Cond(a, ir.LE, tb.Const(1)),
		tb.Cond(a, ir.NE, tb.Const(0)),
	)
	m, ok := New().Model(cs)
	if !ok {
		t.Fatal("no model")
	}
	checkModel(t, cs, m)
	if m["[a]"] != 1 {
		t.Errorf("[a] = %d, want 1", m["[a]"])
	}
}

func TestModelFieldChains(t *testing.T) {
	tb := sym.NewTable()
	dev := tb.Arg("dev")
	cs := set(tb,
		tb.Cond(dev, ir.NE, tb.Null()),
		tb.Cond(tb.Ret(), ir.EQ, tb.Const(0)),
		tb.Cond(tb.Field(dev, "pm"), ir.GE, tb.Const(1)),
	)
	m, ok := New().Model(cs)
	if !ok {
		t.Fatal("no model")
	}
	checkModel(t, cs, m)
	if m["[dev]"] == 0 {
		t.Error("[dev] must be non-null")
	}
}

func TestModelPrefersSmallValues(t *testing.T) {
	tb := sym.NewTable()
	cs := set(tb, tb.Cond(tb.Arg("x"), ir.GE, tb.Const(0)))
	m, ok := New().Model(cs)
	if !ok || m["[x]"] != 0 {
		t.Errorf("model: %v", m)
	}
}

// Property: whenever Sat says satisfiable on a small random system, Model
// finds an assignment and the assignment checks out.
func TestPropertyModelMatchesSat(t *testing.T) {
	tb := sym.NewTable()
	rng := rand.New(rand.NewSource(3))
	vars := []*sym.Expr{tb.Arg("a"), tb.Arg("b")}
	for trial := 0; trial < 300; trial++ {
		cs := sym.True()
		for i := 0; i < 4; i++ {
			c := randomAtom(tb, rng, vars)
			if c.Kind == sym.KCond {
				cs = cs.And(tb, c)
			}
		}
		s := New()
		if !s.Sat(cs) {
			continue
		}
		m, ok := s.Model(cs)
		if !ok {
			t.Fatalf("trial %d: sat but no model for %s", trial, cs)
		}
		checkModel(t, cs, m)
	}
}
