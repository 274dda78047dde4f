package sym

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// genExpr builds a random expression of bounded depth.
func genExpr(rng *rand.Rand, depth int) *Expr {
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return Const(int64(rng.Intn(7) - 3))
		case 1:
			return Null()
		case 2:
			return Arg([]string{"a", "b", "dev"}[rng.Intn(3)])
		case 3:
			return Ret()
		case 4:
			return Local([]string{"v", "w"}[rng.Intn(2)])
		default:
			return Fresh([]string{"r1", "r2"}[rng.Intn(2)])
		}
	}
	switch rng.Intn(3) {
	case 0:
		return Field(genExpr(rng, depth-1), []string{"pm", "rc", "dev"}[rng.Intn(3)])
	case 1:
		preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
		return Cond(genExpr(rng, depth-1), preds[rng.Intn(len(preds))], genExpr(rng, depth-1))
	default:
		return genExpr(rng, 0)
	}
}

// Property: Key() is injective enough — structurally distinct productions
// with equal keys must be Equal, and Subst with an empty map is identity.
func TestPropertyEmptySubstIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := genExpr(rng, 3)
		if got := e.Subst(nil); got != e {
			t.Fatalf("Subst(nil) changed %s", e)
		}
		if got := e.Subst(map[string]*Expr{}); got != e {
			t.Fatalf("Subst(empty) changed %s", e)
		}
	}
}

// Property: substituting x↦x is a no-op up to keys.
func TestPropertyIdentitySubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		e := genExpr(rng, 3)
		m := map[string]*Expr{
			Arg("a").Key():   Arg("a"),
			Local("v").Key(): Local("v"),
		}
		if got := e.Subst(m); got.Key() != e.Key() {
			t.Fatalf("identity substitution changed %s to %s", e, got)
		}
	}
}

// Property: substitution commutes with Key-equality — two expressions with
// the same key substitute to the same key.
func TestPropertySubstRespectsEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := map[string]*Expr{
		Arg("a").Key():    Field(Arg("intf"), "dev"),
		Fresh("r1").Key(): Ret(),
	}
	for i := 0; i < 500; i++ {
		e := genExpr(rng, 3)
		e2 := genExpr(rng, 3)
		if e.Key() == e2.Key() && e.Subst(m).Key() != e2.Subst(m).Key() {
			t.Fatalf("equal keys substituted differently: %s vs %s", e, e2)
		}
	}
}

// Property: double negation of a condition is the original condition.
func TestPropertyDoubleNegation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		e := genExpr(rng, 2).AsCond()
		if e.Kind != KCond {
			continue
		}
		if got := e.NegateCond().NegateCond(); got.Key() != e.Key() {
			t.Fatalf("¬¬%s = %s", e, got)
		}
	}
}

// Property: HasLocal is monotone under Field and Cond construction.
func TestPropertyHasLocalMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		e := genExpr(rng, 3)
		if e.HasLocal() && !Field(e, "x").HasLocal() {
			t.Fatalf("Field lost locality of %s", e)
		}
		c := Cond(e, ir.LT, Const(0))
		if c.Kind == KCond && e.HasLocal() && !c.HasLocal() {
			t.Fatalf("Cond lost locality of %s", e)
		}
	}
}

// Property: And is idempotent and order-insensitive w.r.t. Set.Key().
func TestPropertySetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		var conds []*Expr
		for j := 0; j < 4; j++ {
			c := genExpr(rng, 2).AsCond()
			if c.Kind == KCond {
				conds = append(conds, c)
			}
		}
		fwd, rev := True(), True()
		for _, c := range conds {
			fwd = fwd.And(c)
		}
		for j := len(conds) - 1; j >= 0; j-- {
			rev = rev.And(conds[j])
		}
		if fwd.Key() != rev.Key() {
			t.Fatalf("order sensitivity: %q vs %q", fwd.Key(), rev.Key())
		}
		again := fwd
		for _, c := range conds {
			again = again.And(c)
		}
		if again.Key() != fwd.Key() || again.Len() != fwd.Len() {
			t.Fatalf("And not idempotent")
		}
	}
}

// Property: WithoutLocals never leaves a local behind and never invents
// conditions.
func TestPropertyProjectionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		s := True()
		for j := 0; j < 5; j++ {
			c := genExpr(rng, 2).AsCond()
			if c.Kind == KCond {
				s = s.And(c)
			}
		}
		p := s.WithoutLocals()
		for _, c := range p.Conds() {
			if c.HasLocal() {
				t.Fatalf("local survived projection: %s in %s", c, p)
			}
		}
		if p.Len() > s.Len() {
			t.Fatalf("projection grew the set: %d > %d", p.Len(), s.Len())
		}
	}
}

// quick.Check-based property: BoolConst/IsTrue/IsFalse coherence.
func TestPropertyBoolConst(t *testing.T) {
	f := func(b bool) bool {
		e := BoolConst(b)
		return e.IsTrue() == b && e.IsFalse() == !b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// quick.Check-based property: Const round-trips through IsConst.
func TestPropertyConstRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, ok := Const(v).IsConst()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInternIdentity is the oracle for hash-consing, the only way an
// expression is built: over random expressions, pointer identity is
// canonical-key equality, every node reachable from a constructor's result
// carries a nonzero ID, and two constraint sets share a CacheKey exactly
// when they share a Key.
func TestInternIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if e == nil {
			return
		}
		if e.ID() == 0 {
			t.Fatalf("node %s has no interned ID", e)
		}
		walk(e.Base)
		walk(e.A)
		walk(e.B)
	}
	exprs := make([]*Expr, 300)
	for i := range exprs {
		exprs[i] = genExpr(rng, 3)
		walk(exprs[i])
	}
	shared := 0
	for i, a := range exprs {
		for j, b := range exprs {
			if (a == b) != (a.Key() == b.Key()) {
				t.Fatalf("identity and key disagree: %s (%p) vs %s (%p)", a, a, b, b)
			}
			if i != j && a == b {
				shared++
			}
		}
	}

	sets := make([]Set, 200)
	for i := range sets {
		var conds []*Expr
		for j := rng.Intn(4); j >= 0; j-- {
			conds = append(conds, genExpr(rng, 2).AsCond())
		}
		sets[i] = NewSet(conds)
	}
	sharedSets := 0
	for i, a := range sets {
		for j, b := range sets {
			if (a.CacheKey() == b.CacheKey()) != (a.Key() == b.Key()) {
				t.Fatalf("CacheKey and Key disagree: %q vs %q", a.Key(), b.Key())
			}
			if i != j && a.Key() == b.Key() {
				sharedSets++
			}
		}
	}
	if shared == 0 || sharedSets == 0 {
		t.Fatalf("no independently built pair coincided (%d expressions, %d sets); property too weak", shared, sharedSets)
	}
}
