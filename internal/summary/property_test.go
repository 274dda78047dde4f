package summary

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

// genEntry builds a random entry over a fixed parameter alphabet.
func genEntry(tb *sym.Table, rng *rand.Rand) *Entry {
	params := []string{"a", "b", "dev"}
	cons := sym.True()
	for i := rng.Intn(3); i > 0; i-- {
		a := tb.Arg(params[rng.Intn(len(params))])
		preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
		cons = cons.And(tb, tb.Cond(a, preds[rng.Intn(len(preds))], tb.Const(int64(rng.Intn(5)-2))))
	}
	var ret *sym.Expr
	switch rng.Intn(3) {
	case 0:
		ret = tb.Ret()
	case 1:
		ret = tb.Const(int64(rng.Intn(3) - 1))
	}
	e := NewEntry(cons, ret)
	for i := rng.Intn(3); i > 0; i-- {
		rc := tb.Field(tb.Arg(params[rng.Intn(len(params))]), "pm")
		e.AddChange(rc, rng.Intn(3)-1)
	}
	return e
}

// identityMap maps every alphabet symbol to itself.
func identityMap(tb *sym.Table) map[string]*sym.Expr {
	return map[string]*sym.Expr{
		tb.Arg("a").Key():   tb.Arg("a"),
		tb.Arg("b").Key():   tb.Arg("b"),
		tb.Arg("dev").Key(): tb.Arg("dev"),
		tb.Ret().Key():      tb.Ret(),
	}
}

// Property: instantiating with the identity substitution preserves the
// entry (up to rendering).
func TestPropertyInstantiateIdentity(t *testing.T) {
	tb := sym.NewTable()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		e := genEntry(tb, rng)
		got := e.Instantiate(tb, identityMap(tb))
		if got.String() != e.String() {
			t.Fatalf("identity instantiation changed entry:\n  %s\n  %s", e, got)
		}
	}
}

// Property: SameChanges is an equivalence relation on generated entries.
func TestPropertySameChangesEquivalence(t *testing.T) {
	tb := sym.NewTable()
	rng := rand.New(rand.NewSource(22))
	var entries []*Entry
	for i := 0; i < 30; i++ {
		entries = append(entries, genEntry(tb, rng))
	}
	for _, a := range entries {
		if !a.SameChanges(a) {
			t.Fatalf("not reflexive: %s", a)
		}
		for _, b := range entries {
			if a.SameChanges(b) != b.SameChanges(a) {
				t.Fatalf("not symmetric: %s vs %s", a, b)
			}
			for _, c := range entries {
				if a.SameChanges(b) && b.SameChanges(c) && !a.SameChanges(c) {
					t.Fatalf("not transitive")
				}
			}
		}
	}
}

// Property: DifferingRefcounts is empty iff SameChanges.
func TestPropertyDifferingMatchesSame(t *testing.T) {
	tb := sym.NewTable()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		a, b := genEntry(tb, rng), genEntry(tb, rng)
		same := a.SameChanges(b)
		diff := a.DifferingRefcounts(b)
		if same != (len(diff) == 0) {
			t.Fatalf("SameChanges=%t but %d differing refcounts:\n  %s\n  %s", same, len(diff), a, b)
		}
	}
}

// genSummary wraps random entries in a summary with random flags.
func genSummary(tb *sym.Table, rng *rand.Rand) *Summary {
	s := New("f")
	s.Params = []string{"a", "b", "dev"}
	for i := rng.Intn(4); i > 0; i-- {
		s.Entries = append(s.Entries, genEntry(tb, rng))
	}
	s.HasDefault = rng.Intn(2) == 0
	s.Predefined = rng.Intn(2) == 0
	return s
}

// Property: Marshal/Unmarshal round-trips a summary exactly — rendering,
// per-entry change signatures and SameChanges relations all survive, and
// decoded expressions are interned into the decoding table (pointer-equal
// to ones built there).
func TestPropertyMarshalRoundTrip(t *testing.T) {
	tb := sym.NewTable()
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 300; i++ {
		s := genSummary(tb, rng)
		data, err := MarshalSummary(s)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := UnmarshalSummary(tb, data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.String() != s.String() {
			t.Fatalf("round trip changed rendering:\n  %s\n  %s", s, got)
		}
		if got.Fn != s.Fn || got.HasDefault != s.HasDefault || got.Predefined != s.Predefined {
			t.Fatalf("round trip changed flags: %+v vs %+v", s, got)
		}
		if len(got.Entries) != len(s.Entries) {
			t.Fatalf("round trip changed entry count: %d vs %d", len(s.Entries), len(got.Entries))
		}
		for j, e := range s.Entries {
			g := got.Entries[j]
			if gs, es := g.AppendChangesSignature(nil), e.AppendChangesSignature(nil); !bytes.Equal(gs, es) {
				t.Fatalf("entry %d signature changed: %q vs %q", j, es, gs)
			}
			if !g.SameChanges(e) || !e.SameChanges(g) {
				t.Fatalf("entry %d lost change equality:\n  %s\n  %s", j, e, g)
			}
			for _, c := range g.SortedChanges() {
				if c.RC != UnmarshalInterned(t, tb, c.RC) {
					t.Fatalf("entry %d refcount %s not re-interned", j, c.RC)
				}
			}
		}
	}
}

// UnmarshalInterned re-marshals and decodes one expression, returning the
// decoded pointer; with hash-consing it must be the identical pointer.
func UnmarshalInterned(t *testing.T, tb *sym.Table, e *sym.Expr) *sym.Expr {
	t.Helper()
	data, err := MarshalExpr(e)
	if err != nil {
		t.Fatalf("marshal expr: %v", err)
	}
	got, err := UnmarshalExpr(tb, data)
	if err != nil {
		t.Fatalf("unmarshal expr: %v", err)
	}
	return got
}

// Property: instantiation distributes over SameChanges — entries with the
// same changes still have the same changes after any substitution.
func TestPropertyInstantiatePreservesSameChanges(t *testing.T) {
	tb := sym.NewTable()
	rng := rand.New(rand.NewSource(24))
	m := map[string]*sym.Expr{
		tb.Arg("a").Key():   tb.Field(tb.Arg("intf"), "dev"),
		tb.Arg("b").Key():   tb.Arg("x"),
		tb.Arg("dev").Key(): tb.Arg("x"), // collide b and dev on purpose
		tb.Ret().Key():      tb.Fresh("r"),
	}
	for i := 0; i < 300; i++ {
		a, b := genEntry(tb, rng), genEntry(tb, rng)
		if a.SameChanges(b) && !a.Instantiate(tb, m).SameChanges(b.Instantiate(tb, m)) {
			t.Fatalf("substitution broke change equality:\n  %s\n  %s", a, b)
		}
	}
}
