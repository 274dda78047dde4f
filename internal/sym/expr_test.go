package sym

import (
	"testing"

	"repro/internal/ir"
)

func TestKeyCanonical(t *testing.T) {
	tb := NewTable()
	tests := []struct {
		e    *Expr
		want string
	}{
		{tb.Arg("dev"), "[dev]"},
		{tb.Ret(), "[0]"},
		{tb.Local("v"), "v"},
		{tb.Fresh("r1"), "$r1"},
		{tb.Field(tb.Arg("dev"), "pm"), "[dev].pm"},
		{tb.Field(tb.Field(tb.Arg("intf"), "dev"), "pm"), "[intf].dev.pm"},
		{tb.Const(42), "42"},
		{tb.Null(), "null"},
		{tb.Cond(tb.Arg("a"), ir.LT, tb.Const(0)), "([a] < 0)"},
	}
	for _, tt := range tests {
		if got := tt.e.Key(); got != tt.want {
			t.Errorf("Key() = %q, want %q", got, tt.want)
		}
	}
}

func TestCondConstantFolding(t *testing.T) {
	tb := NewTable()
	if !tb.Cond(tb.Const(3), ir.GT, tb.Const(1)).IsTrue() {
		t.Error("3 > 1 should fold to true")
	}
	if !tb.Cond(tb.Const(0), ir.EQ, tb.Null()).IsTrue() {
		t.Error("0 == null should fold to true")
	}
	if !tb.Cond(tb.Const(5), ir.LT, tb.Const(2)).IsFalse() {
		t.Error("5 < 2 should fold to false")
	}
}

func TestCondReflexiveFolding(t *testing.T) {
	tb := NewTable()
	a := tb.Arg("x")
	if !tb.Cond(a, ir.EQ, a).IsTrue() || !tb.Cond(a, ir.LE, a).IsTrue() {
		t.Error("x == x and x <= x should fold true")
	}
	if !tb.Cond(a, ir.NE, a).IsFalse() || !tb.Cond(a, ir.LT, a).IsFalse() {
		t.Error("x != x and x < x should fold false")
	}
}

func TestCondBooleanContext(t *testing.T) {
	tb := NewTable()
	c := tb.Cond(tb.Arg("a"), ir.LT, tb.Const(0)) // [a] < 0
	// (c == 0) is ¬c.
	n := tb.Cond(c, ir.EQ, tb.Const(0))
	if n.Kind != KCond || n.Pred != ir.GE {
		t.Errorf("(c == 0): got %s", n)
	}
	// (c != 0) is c.
	same := tb.Cond(c, ir.NE, tb.Const(0))
	if same != c {
		t.Errorf("(c != 0): got %s", same)
	}
}

func TestNegateCond(t *testing.T) {
	tb := NewTable()
	c := tb.Cond(tb.Arg("a"), ir.LE, tb.Const(0))
	n := c.NegateCond(tb)
	if n.Pred != ir.GT {
		t.Errorf("negate <=: got %s", n)
	}
	// Negating a plain term x gives x == 0.
	nt := tb.Arg("x").NegateCond(tb)
	if nt.Kind != KCond || nt.Pred != ir.EQ {
		t.Errorf("negate term: got %s", nt)
	}
}

func TestAsCond(t *testing.T) {
	tb := NewTable()
	// A raw term t used as a condition becomes t != 0.
	c := tb.Arg("p").AsCond(tb)
	if c.Kind != KCond || c.Pred != ir.NE {
		t.Errorf("AsCond(term): %s", c)
	}
	// Conditions pass through.
	orig := tb.Cond(tb.Arg("a"), ir.GT, tb.Const(2))
	if orig.AsCond(tb) != orig {
		t.Error("AsCond(cond) should be identity")
	}
	if !tb.Const(7).AsCond(tb).IsTrue() || !tb.Const(0).AsCond(tb).IsFalse() {
		t.Error("const truthiness")
	}
}

func TestSymmetricCanonicalOrder(t *testing.T) {
	tb := NewTable()
	a, b := tb.Arg("a"), tb.Arg("b")
	if tb.Cond(a, ir.EQ, b).Key() != tb.Cond(b, ir.EQ, a).Key() {
		t.Error("EQ should canonicalize operand order")
	}
	if tb.Cond(a, ir.NE, b).Key() != tb.Cond(b, ir.NE, a).Key() {
		t.Error("NE should canonicalize operand order")
	}
}

func TestHasLocal(t *testing.T) {
	tb := NewTable()
	if tb.Arg("a").HasLocal() || tb.Ret().HasLocal() {
		t.Error("args and ret are observable")
	}
	if !tb.Local("v").HasLocal() || !tb.Fresh("r").HasLocal() {
		t.Error("locals and fresh are unobservable")
	}
	if !tb.Field(tb.Fresh("r"), "rc").HasLocal() {
		t.Error("field of fresh is unobservable")
	}
	if !tb.Cond(tb.Local("v"), ir.GT, tb.Const(0)).HasLocal() {
		t.Error("cond mentioning local")
	}
}

func TestSubst(t *testing.T) {
	tb := NewTable()
	// Instantiate [d].pm with d := [intf].dev (wrapper instantiation).
	rc := tb.Field(tb.Arg("d"), "pm")
	m := map[string]*Expr{tb.Arg("d").Key(): tb.Field(tb.Arg("intf"), "dev")}
	got := rc.Subst(tb, m)
	if got.Key() != "[intf].dev.pm" {
		t.Errorf("subst: %s", got)
	}
	// Substitution inside conditions.
	c := tb.Cond(tb.Arg("d"), ir.NE, tb.Null())
	gc := c.Subst(tb, m)
	// Null canonicalizes to 0 inside conditions; symmetric predicates
	// canonicalize operand order.
	if gc.Key() != "(0 != [intf].dev)" {
		t.Errorf("cond subst: %s", gc)
	}
}

func TestSetAndDedup(t *testing.T) {
	tb := NewTable()
	s := True()
	c := tb.Cond(tb.Arg("a"), ir.GT, tb.Const(0))
	s = s.And(tb, c).And(tb, c).And(tb, tb.BoolConst(true))
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestSetHasFalse(t *testing.T) {
	tb := NewTable()
	s := True().And(tb, tb.BoolConst(false))
	if !s.HasFalse() {
		t.Error("false constant must be detected")
	}
}

func TestWithoutLocalsProjection(t *testing.T) {
	tb := NewTable()
	// [0] = v ∧ v ≥ 0 ∧ [dev] ≠ null  →  [0] ≥ 0 ∧ [dev] ≠ null
	v := tb.Fresh("r1")
	s := True().
		And(tb, tb.Cond(tb.Ret(), ir.EQ, v)).
		And(tb, tb.Cond(v, ir.GE, tb.Const(0))).
		And(tb, tb.Cond(tb.Arg("dev"), ir.NE, tb.Null()))
	got := s.WithoutLocals(tb)
	if got.Len() != 2 {
		t.Fatalf("projected set: %s", got)
	}
	text := got.String()
	if !contains(text, "[0]") || !contains(text, "[dev]") {
		t.Errorf("projection lost information: %s", text)
	}
	for _, c := range got.Conds() {
		if c.HasLocal() {
			t.Errorf("local survived projection: %s", c)
		}
	}
}

func TestWithoutLocalsDropsUnpinned(t *testing.T) {
	tb := NewTable()
	// v > 0 with no link to observables must vanish.
	s := True().And(tb, tb.Cond(tb.Fresh("v"), ir.GT, tb.Const(0)))
	if got := s.WithoutLocals(tb); got.Len() != 0 {
		t.Errorf("unpinned local condition survived: %s", got)
	}
}

func TestWithoutLocalsChainedEqualities(t *testing.T) {
	tb := NewTable()
	// [0] = a ∧ a = b ∧ b ≥ 3  →  [0] ≥ 3 (two substitution rounds).
	a, b := tb.Fresh("a"), tb.Fresh("b")
	s := True().
		And(tb, tb.Cond(tb.Ret(), ir.EQ, a)).
		And(tb, tb.Cond(a, ir.EQ, b)).
		And(tb, tb.Cond(b, ir.GE, tb.Const(3)))
	got := s.WithoutLocals(tb)
	found := false
	for _, c := range got.Conds() {
		if c.HasRet() && c.Pred == ir.GE {
			found = true
		}
	}
	if !found {
		t.Errorf("chained equality lost: %s", got)
	}
}

func TestSetKeyOrderIndependent(t *testing.T) {
	tb := NewTable()
	c1 := tb.Cond(tb.Arg("a"), ir.GT, tb.Const(0))
	c2 := tb.Cond(tb.Arg("b"), ir.LT, tb.Const(5))
	s1 := True().And(tb, c1).And(tb, c2)
	s2 := True().And(tb, c2).And(tb, c1)
	if s1.Key() != s2.Key() {
		t.Errorf("keys differ: %q vs %q", s1.Key(), s2.Key())
	}
}

func TestSetImmutability(t *testing.T) {
	tb := NewTable()
	base := True().And(tb, tb.Cond(tb.Arg("a"), ir.GT, tb.Const(0)))
	_ = base.And(tb, tb.Cond(tb.Arg("b"), ir.LT, tb.Const(1)))
	if base.Len() != 1 {
		t.Error("And mutated the receiver")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
