package sym

import (
	"testing"

	"repro/internal/ir"
)

func TestKeyCanonical(t *testing.T) {
	tests := []struct {
		e    *Expr
		want string
	}{
		{Arg("dev"), "[dev]"},
		{Ret(), "[0]"},
		{Local("v"), "v"},
		{Fresh("r1"), "$r1"},
		{Field(Arg("dev"), "pm"), "[dev].pm"},
		{Field(Field(Arg("intf"), "dev"), "pm"), "[intf].dev.pm"},
		{Const(42), "42"},
		{Null(), "null"},
		{Cond(Arg("a"), ir.LT, Const(0)), "([a] < 0)"},
	}
	for _, tt := range tests {
		if got := tt.e.Key(); got != tt.want {
			t.Errorf("Key() = %q, want %q", got, tt.want)
		}
	}
}

func TestCondConstantFolding(t *testing.T) {
	if !Cond(Const(3), ir.GT, Const(1)).IsTrue() {
		t.Error("3 > 1 should fold to true")
	}
	if !Cond(Const(0), ir.EQ, Null()).IsTrue() {
		t.Error("0 == null should fold to true")
	}
	if !Cond(Const(5), ir.LT, Const(2)).IsFalse() {
		t.Error("5 < 2 should fold to false")
	}
}

func TestCondReflexiveFolding(t *testing.T) {
	a := Arg("x")
	if !Cond(a, ir.EQ, a).IsTrue() || !Cond(a, ir.LE, a).IsTrue() {
		t.Error("x == x and x <= x should fold true")
	}
	if !Cond(a, ir.NE, a).IsFalse() || !Cond(a, ir.LT, a).IsFalse() {
		t.Error("x != x and x < x should fold false")
	}
}

func TestCondBooleanContext(t *testing.T) {
	c := Cond(Arg("a"), ir.LT, Const(0)) // [a] < 0
	// (c == 0) is ¬c.
	n := Cond(c, ir.EQ, Const(0))
	if n.Kind != KCond || n.Pred != ir.GE {
		t.Errorf("(c == 0): got %s", n)
	}
	// (c != 0) is c.
	same := Cond(c, ir.NE, Const(0))
	if same != c {
		t.Errorf("(c != 0): got %s", same)
	}
}

func TestNegateCond(t *testing.T) {
	c := Cond(Arg("a"), ir.LE, Const(0))
	n := c.NegateCond()
	if n.Pred != ir.GT {
		t.Errorf("negate <=: got %s", n)
	}
	// Negating a plain term x gives x == 0.
	nt := Arg("x").NegateCond()
	if nt.Kind != KCond || nt.Pred != ir.EQ {
		t.Errorf("negate term: got %s", nt)
	}
}

func TestAsCond(t *testing.T) {
	// A raw term t used as a condition becomes t != 0.
	c := Arg("p").AsCond()
	if c.Kind != KCond || c.Pred != ir.NE {
		t.Errorf("AsCond(term): %s", c)
	}
	// Conditions pass through.
	orig := Cond(Arg("a"), ir.GT, Const(2))
	if orig.AsCond() != orig {
		t.Error("AsCond(cond) should be identity")
	}
	if !Const(7).AsCond().IsTrue() || !Const(0).AsCond().IsFalse() {
		t.Error("const truthiness")
	}
}

func TestSymmetricCanonicalOrder(t *testing.T) {
	a, b := Arg("a"), Arg("b")
	if Cond(a, ir.EQ, b).Key() != Cond(b, ir.EQ, a).Key() {
		t.Error("EQ should canonicalize operand order")
	}
	if Cond(a, ir.NE, b).Key() != Cond(b, ir.NE, a).Key() {
		t.Error("NE should canonicalize operand order")
	}
}

func TestHasLocal(t *testing.T) {
	if Arg("a").HasLocal() || Ret().HasLocal() {
		t.Error("args and ret are observable")
	}
	if !Local("v").HasLocal() || !Fresh("r").HasLocal() {
		t.Error("locals and fresh are unobservable")
	}
	if !Field(Fresh("r"), "rc").HasLocal() {
		t.Error("field of fresh is unobservable")
	}
	if !Cond(Local("v"), ir.GT, Const(0)).HasLocal() {
		t.Error("cond mentioning local")
	}
}

func TestSubst(t *testing.T) {
	// Instantiate [d].pm with d := [intf].dev (wrapper instantiation).
	rc := Field(Arg("d"), "pm")
	m := map[string]*Expr{Arg("d").Key(): Field(Arg("intf"), "dev")}
	got := rc.Subst(m)
	if got.Key() != "[intf].dev.pm" {
		t.Errorf("subst: %s", got)
	}
	// Substitution inside conditions.
	c := Cond(Arg("d"), ir.NE, Null())
	gc := c.Subst(m)
	// Null canonicalizes to 0 inside conditions; symmetric predicates
	// canonicalize operand order.
	if gc.Key() != "(0 != [intf].dev)" {
		t.Errorf("cond subst: %s", gc)
	}
}

func TestSetAndDedup(t *testing.T) {
	s := True()
	c := Cond(Arg("a"), ir.GT, Const(0))
	s = s.And(c).And(c).And(BoolConst(true))
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
}

func TestSetHasFalse(t *testing.T) {
	s := True().And(BoolConst(false))
	if !s.HasFalse() {
		t.Error("false constant must be detected")
	}
}

func TestWithoutLocalsProjection(t *testing.T) {
	// [0] = v ∧ v ≥ 0 ∧ [dev] ≠ null  →  [0] ≥ 0 ∧ [dev] ≠ null
	v := Fresh("r1")
	s := True().
		And(Cond(Ret(), ir.EQ, v)).
		And(Cond(v, ir.GE, Const(0))).
		And(Cond(Arg("dev"), ir.NE, Null()))
	got := s.WithoutLocals()
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
	// v > 0 with no link to observables must vanish.
	s := True().And(Cond(Fresh("v"), ir.GT, Const(0)))
	if got := s.WithoutLocals(); got.Len() != 0 {
		t.Errorf("unpinned local condition survived: %s", got)
	}
}

func TestWithoutLocalsChainedEqualities(t *testing.T) {
	// [0] = a ∧ a = b ∧ b ≥ 3  →  [0] ≥ 3 (two substitution rounds).
	a, b := Fresh("a"), Fresh("b")
	s := True().
		And(Cond(Ret(), ir.EQ, a)).
		And(Cond(a, ir.EQ, b)).
		And(Cond(b, ir.GE, Const(3)))
	got := s.WithoutLocals()
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
	c1 := Cond(Arg("a"), ir.GT, Const(0))
	c2 := Cond(Arg("b"), ir.LT, Const(5))
	s1 := True().And(c1).And(c2)
	s2 := True().And(c2).And(c1)
	if s1.Key() != s2.Key() {
		t.Errorf("keys differ: %q vs %q", s1.Key(), s2.Key())
	}
}

func TestSetImmutability(t *testing.T) {
	base := True().And(Cond(Arg("a"), ir.GT, Const(0)))
	_ = base.And(Cond(Arg("b"), ir.LT, Const(1)))
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
