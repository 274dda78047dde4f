package sym

import (
	"testing"

	"repro/internal/ir"
)

func TestInterningPointerIdentity(t *testing.T) {
	a1 := Field(Arg("dev"), "pm")
	a2 := Field(Arg("dev"), "pm")
	if a1 != a2 {
		t.Error("structurally equal field chains are not pointer-identical")
	}
	c1 := Cond(a1, ir.LT, Const(0))
	c2 := Cond(a2, ir.LT, Const(0))
	if c1 != c2 {
		t.Error("structurally equal conditions are not pointer-identical")
	}
	if c1.ID() == 0 {
		t.Error("interned node has no ID")
	}
	if c1.Key() != "([dev].pm < 0)" {
		t.Errorf("precomputed key wrong: %q", c1.Key())
	}
}

func TestInterningDistinctNodesDistinctIDs(t *testing.T) {
	a := Arg("a")
	b := Arg("b")
	if a == b || a.ID() == b.ID() {
		t.Error("distinct expressions share identity")
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	a := Cond(Arg("a"), ir.GE, Const(0))
	b := Cond(Arg("b"), ir.LT, Const(5))
	s1 := True().And(a).And(b)
	s2 := True().And(b).And(a)
	if s1.CacheKey() != s2.CacheKey() {
		t.Error("CacheKey is order-sensitive")
	}
	if s1.CacheKey()[0] != 0 {
		t.Error("interned CacheKey must be NUL-prefixed (collision guard)")
	}
	s3 := True().And(a)
	if s1.CacheKey() == s3.CacheKey() {
		t.Error("different sets share a CacheKey")
	}
}

func TestNewSetMatchesAndFold(t *testing.T) {
	conds := []*Expr{
		Cond(Arg("a"), ir.GE, Const(0)),
		Cond(Arg("b"), ir.LT, Const(3)),
		Cond(Arg("a"), ir.GE, Const(0)), // duplicate
		BoolConst(true),                 // dropped
		Cond(Arg("c"), ir.EQ, Arg("d")),
	}
	bulk := NewSet(conds)
	folded := True()
	for _, c := range conds {
		folded = folded.And(c)
	}
	if bulk.Key() != folded.Key() {
		t.Errorf("NewSet key %q != And-fold key %q", bulk.Key(), folded.Key())
	}
	if bulk.Len() != folded.Len() {
		t.Errorf("NewSet len %d != And-fold len %d", bulk.Len(), folded.Len())
	}
	for i, c := range bulk.Conds() {
		if folded.Conds()[i] != c {
			t.Fatalf("insertion order diverges at %d", i)
		}
	}
}
