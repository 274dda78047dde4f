package sym

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// genExpr builds a random expression of bounded depth.
func genExpr(tb *Table, rng *rand.Rand, depth int) *Expr {
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return tb.Const(int64(rng.Intn(7) - 3))
		case 1:
			return tb.Null()
		case 2:
			return tb.Arg([]string{"a", "b", "dev"}[rng.Intn(3)])
		case 3:
			return tb.Ret()
		case 4:
			return tb.Local([]string{"v", "w"}[rng.Intn(2)])
		default:
			return tb.Fresh([]string{"r1", "r2"}[rng.Intn(2)])
		}
	}
	switch rng.Intn(3) {
	case 0:
		return tb.Field(genExpr(tb, rng, depth-1), []string{"pm", "rc", "dev"}[rng.Intn(3)])
	case 1:
		preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
		return tb.Cond(genExpr(tb, rng, depth-1), preds[rng.Intn(len(preds))], genExpr(tb, rng, depth-1))
	default:
		return genExpr(tb, rng, 0)
	}
}

// Property: Key() is injective enough — structurally distinct productions
// with equal keys must be Equal, and Subst with an empty map is identity.
func TestPropertyEmptySubstIsIdentity(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		e := genExpr(tb, rng, 3)
		if got := e.Subst(tb, nil); got != e {
			t.Fatalf("Subst(nil) changed %s", e)
		}
		if got := e.Subst(tb, map[string]*Expr{}); got != e {
			t.Fatalf("Subst(empty) changed %s", e)
		}
	}
}

// Property: substituting x↦x is a no-op up to keys.
func TestPropertyIdentitySubstitution(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		e := genExpr(tb, rng, 3)
		m := map[string]*Expr{
			tb.Arg("a").Key():   tb.Arg("a"),
			tb.Local("v").Key(): tb.Local("v"),
		}
		if got := e.Subst(tb, m); got.Key() != e.Key() {
			t.Fatalf("identity substitution changed %s to %s", e, got)
		}
	}
}

// Property: substitution commutes with Key-equality — two expressions with
// the same key substitute to the same key.
func TestPropertySubstRespectsEquality(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(9))
	m := map[string]*Expr{
		tb.Arg("a").Key():    tb.Field(tb.Arg("intf"), "dev"),
		tb.Fresh("r1").Key(): tb.Ret(),
	}
	for i := 0; i < 500; i++ {
		e := genExpr(tb, rng, 3)
		e2 := genExpr(tb, rng, 3)
		if e.Key() == e2.Key() && e.Subst(tb, m).Key() != e2.Subst(tb, m).Key() {
			t.Fatalf("equal keys substituted differently: %s vs %s", e, e2)
		}
	}
}

// Property: double negation of a condition is the original condition.
func TestPropertyDoubleNegation(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		e := genExpr(tb, rng, 2).AsCond(tb)
		if e.Kind != KCond {
			continue
		}
		if got := e.NegateCond(tb).NegateCond(tb); got.Key() != e.Key() {
			t.Fatalf("¬¬%s = %s", e, got)
		}
	}
}

// Property: HasLocal is monotone under Field and Cond construction.
func TestPropertyHasLocalMonotone(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		e := genExpr(tb, rng, 3)
		if e.HasLocal() && !tb.Field(e, "x").HasLocal() {
			t.Fatalf("Field lost locality of %s", e)
		}
		c := tb.Cond(e, ir.LT, tb.Const(0))
		if c.Kind == KCond && e.HasLocal() && !c.HasLocal() {
			t.Fatalf("Cond lost locality of %s", e)
		}
	}
}

// Property: And is idempotent and order-insensitive w.r.t. Set.Key().
func TestPropertySetAlgebra(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		var conds []*Expr
		for j := 0; j < 4; j++ {
			c := genExpr(tb, rng, 2).AsCond(tb)
			if c.Kind == KCond {
				conds = append(conds, c)
			}
		}
		fwd, rev := True(), True()
		for _, c := range conds {
			fwd = fwd.And(tb, c)
		}
		for j := len(conds) - 1; j >= 0; j-- {
			rev = rev.And(tb, conds[j])
		}
		if fwd.Key() != rev.Key() {
			t.Fatalf("order sensitivity: %q vs %q", fwd.Key(), rev.Key())
		}
		again := fwd
		for _, c := range conds {
			again = again.And(tb, c)
		}
		if again.Key() != fwd.Key() || again.Len() != fwd.Len() {
			t.Fatalf("And not idempotent")
		}
	}
}

// Property: WithoutLocals never leaves a local behind and never invents
// conditions.
func TestPropertyProjectionSound(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		s := True()
		for j := 0; j < 5; j++ {
			c := genExpr(tb, rng, 2).AsCond(tb)
			if c.Kind == KCond {
				s = s.And(tb, c)
			}
		}
		p := s.WithoutLocals(tb)
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
	tb := NewTable()
	f := func(b bool) bool {
		e := tb.BoolConst(b)
		return e.IsTrue() == b && e.IsFalse() == !b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// quick.Check-based property: Const round-trips through IsConst.
func TestPropertyConstRoundTrip(t *testing.T) {
	tb := NewTable()
	f := func(v int64) bool {
		got, ok := tb.Const(v).IsConst()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInternIdentity is the oracle for hash-consing, the only way an
// expression is built: over random expressions built in one table,
// pointer identity is canonical-key equality, every node reachable from a
// constructor's result carries a nonzero ID, and two constraint sets share
// a CacheKey exactly when they share a Key. Across tables no node or ID is
// ever shared, and importing maps each node to its key-equal twin.
func TestInternIdentity(t *testing.T) {
	tb := NewTable()
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
		exprs[i] = genExpr(tb, rng, 3)
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
			conds = append(conds, genExpr(tb, rng, 2).AsCond(tb))
		}
		sets[i] = NewSet(tb, conds)
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
	other := NewTable()
	ids := map[uint64]bool{}
	for _, e := range exprs {
		ids[e.ID()] = true
	}
	for i := 0; i < 300; i++ {
		e := genExpr(other, rng, 3)
		if ids[e.ID()] || tb.Owns(e) {
			t.Fatalf("node %s of another table shares an ID or is owned", e)
		}
		imp := tb.Import(e)
		if imp.Key() != e.Key() || !tb.Owns(imp) || imp != tb.Import(e) {
			t.Fatalf("import of %s gave %s", e, imp)
		}
		for _, a := range exprs {
			if (a == imp) != (a.Key() == e.Key()) {
				t.Fatalf("imported %s and built %s disagree on identity", imp, a)
			}
		}
	}
	if shared == 0 || sharedSets == 0 {
		t.Fatalf("no independently built pair coincided (%d expressions, %d sets); property too weak", shared, sharedSets)
	}
}

// projectLocalsReference is the projection as first written: fresh maps
// and a NewSet per fixpoint round. It is the oracle for Projector.
func projectLocalsReference(tb *Table, s Set) (Set, map[string]*Expr) {
	anyLocal := false
	for _, c := range s.conds {
		anyLocal = anyLocal || c.HasLocal()
	}
	if !anyLocal {
		return s, nil
	}
	conds := s.conds
	pins := make(map[string]*Expr)
	for iter := 0; iter < 8; iter++ {
		m := make(map[string]*Expr)
		for _, c := range conds {
			if c.Kind != KCond || c.Pred != ir.EQ {
				continue
			}
			a, b := c.A, c.B
			if isProjectable(a) && !b.HasLocal() {
				if _, dup := m[a.Key()]; !dup {
					m[a.Key()] = b
				}
			} else if isProjectable(b) && !a.HasLocal() {
				if _, dup := m[b.Key()]; !dup {
					m[b.Key()] = a
				}
			}
		}
		if len(m) == 0 {
			break
		}
		for k, v := range pins {
			pins[k] = v.Subst(tb, m)
		}
		for k, v := range m {
			if _, dup := pins[k]; !dup {
				pins[k] = v
			}
		}
		subbed := make([]*Expr, len(conds))
		for i, c := range conds {
			subbed[i] = c.Subst(tb, m)
		}
		conds = NewSet(tb, subbed).conds
	}
	var keep []*Expr
	for _, c := range conds {
		if !c.HasLocal() {
			keep = append(keep, c)
		}
	}
	return NewSet(tb, keep), pins
}

// TestProjectorMatchesReference: one Projector reused across random sets,
// pinning equalities included, projects s ∧ c exactly as the reference
// projects the built conjunction — the same conditions in the same order
// and the same pins — and leaves no earlier call's pins behind.
func TestProjectorMatchesReference(t *testing.T) {
	tb := NewTable()
	rng := rand.New(rand.NewSource(15))
	pinning := []*Expr{
		tb.Cond(tb.Local("v"), ir.EQ, tb.Arg("a")),
		tb.Cond(tb.Fresh("r1"), ir.EQ, tb.Local("w")),
		tb.Cond(tb.Local("w"), ir.EQ, tb.Const(3)),
		tb.Cond(tb.Ret(), ir.EQ, tb.Fresh("r2")),
		tb.Cond(tb.Fresh("r2"), ir.EQ, tb.Field(tb.Arg("dev"), "pm")),
	}
	var p Projector
	rounds := 0
	for i := 0; i < 2000; i++ {
		s := True()
		for j, n := 0, rng.Intn(7); j < n; j++ {
			if rng.Intn(3) == 0 {
				s = s.And(tb, pinning[rng.Intn(len(pinning))])
			} else if c := genExpr(tb, rng, 2).AsCond(tb); c.Kind == KCond {
				s = s.And(tb, c)
			}
		}
		var c *Expr
		switch rng.Intn(3) {
		case 0:
			c = pinning[rng.Intn(len(pinning))]
		case 1:
			c = genExpr(tb, rng, 2)
		}
		want := s
		if c != nil {
			want = s.And(tb, c)
		}
		wantSet, wantPins := projectLocalsReference(tb, want)
		gotSet, gotPins := p.Project(tb, s, c)
		if len(gotSet.Conds()) != len(wantSet.Conds()) {
			t.Fatalf("%s ∧ %v: projected to %s, want %s", s, c, gotSet, wantSet)
		}
		for k, x := range gotSet.Conds() {
			if x != wantSet.Conds()[k] {
				t.Fatalf("%s ∧ %v: projected to %s, want %s", s, c, gotSet, wantSet)
			}
		}
		if gotSet.Key() != wantSet.Key() || len(gotPins) != len(wantPins) {
			t.Fatalf("%s ∧ %v: pins %v, want %v", s, c, gotPins, wantPins)
		}
		for k, v := range wantPins {
			if gotPins[k] != v {
				t.Fatalf("%s ∧ %v: pin %s = %v, want %v", s, c, k, gotPins[k], v)
			}
		}
		if len(wantPins) > 0 {
			rounds++
		}
	}
	if rounds < 100 {
		t.Errorf("only %d sets pinned a local; generator too weak", rounds)
	}
}

// TestProjectorReset: Reset leaves a Projector holding no pins and no
// condition, so a pooled owner pins nothing between borrows.
func TestProjectorReset(t *testing.T) {
	tb := NewTable()
	var p Projector
	p.Project(tb, NewSet(tb, []*Expr{tb.Cond(tb.Local("v"), ir.EQ, tb.Arg("a")), tb.Cond(tb.Local("v"), ir.GT, tb.Const(0))}), tb.Cond(tb.Ret(), ir.EQ, tb.Local("v")))
	if len(p.pins) == 0 {
		t.Fatal("the projection pinned nothing; test too weak")
	}
	p.Reset()
	if len(p.pins) != 0 || len(p.round) != 0 {
		t.Error("Reset left pins")
	}
	for _, buf := range [][]*Expr{p.a[:cap(p.a)], p.b[:cap(p.b)]} {
		for _, c := range buf {
			if c != nil {
				t.Fatal("Reset left a condition in scratch")
			}
		}
	}
}
