package solver

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

// FuzzSolver cross-checks the quickSolve interval fast path against the
// full Fourier–Motzkin procedure. quickSolve's contract is that whenever
// it claims a query (handled=true) its verdict is identical to the slow
// path's — give-up behavior included, which is why it defers any query the
// slow path might answer conservatively. The fuzzer builds conjunctions
// over a small term vocabulary (so terms collide and intervals interact)
// and asserts both procedures agree under several limit settings.
func FuzzSolver(f *testing.F) {
	tb := sym.NewTable()
	for _, seed := range solverSeeds {
		f.Add(seed.data, seed.limitSel)
	}
	f.Fuzz(func(t *testing.T, data []byte, limitSel uint8) {
		limits := fuzzLimits(limitSel)
		cs := sym.NewSet(tb, fuzzConds(tb, data, fuzzTerms(tb)))

		fast := NewWithCache(limits, NewCache())
		slow := NewWithCache(limits, NewCache())
		slow.noQuick = true
		v1 := fast.Sat(cs)
		v2 := slow.Sat(cs)
		if v1 != v2 {
			t.Fatalf("quickSolve disagrees with full procedure: quick=%v full=%v\nconds: %v",
				v1, v2, cs.Conds())
		}
		// Re-asking must be stable (second answer comes from the cache).
		if fast.Sat(cs) != v1 {
			t.Fatal("cached verdict differs from computed verdict")
		}
	})
}

// solverSeeds are FuzzSolver's in-code seeds.
var solverSeeds = []struct {
	data     []byte
	limitSel uint8
}{
	{[]byte{0, 2, 9}, 0},
	{[]byte{0, 2, 9, 0, 5, 3}, 1},                   // contradictory bounds on one term
	{[]byte{1, 1, 0, 1, 1, 1, 1, 1, 2}, 2},          // NE exclusions
	{[]byte{0x80, 0, 7, 2, 3, 200, 3, 4, 128}, 3},   // flipped orientation, negatives
	{[]byte{5, 0, 1, 5, 1, 0, 4, 2, 1, 4, 3, 1}, 0}, // bool term + Ret
	{[]byte{0x40, 0, 0, 0x41, 1, 0, 0x42, 2, 0}, 1}, // term-vs-term (slow path only)
}

// fuzzLimits maps a fuzz input's selector to one of four limit settings.
func fuzzLimits(sel uint8) Limits {
	switch sel % 4 {
	case 1:
		return Limits{MaxSplits: 1}
	case 2:
		return Limits{MaxSplits: 3, MaxConstraints: 8}
	case 3:
		return Limits{MaxConstraints: 6}
	}
	return Limits{}
}

// fuzzTerms is a small vocabulary of interned terms: collisions across
// conjuncts are what make intervals (and disequality exclusions) interact.
func fuzzTerms(tb *sym.Table) []*sym.Expr {
	return []*sym.Expr{
		tb.Arg("a"),
		tb.Arg("b"),
		tb.Field(tb.Arg("a"), "f"),
		tb.Fresh("w"),
		tb.Ret(),
		tb.Cond(tb.Arg("b"), ir.NE, tb.Null()), // opaque boolean term
	}
}

// fuzzConds decodes data into a conjunction over terms, three bytes per
// conjunct: term (low nibble; 0x40 makes the right side a term too, 0x80
// puts the constant on the left), predicate, and a small constant.
func fuzzConds(tb *sym.Table, data []byte, terms []*sym.Expr) []*sym.Expr {
	preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
	var conds []*sym.Expr
	for i := 0; i+2 < len(data) && len(conds) < 24; i += 3 {
		tm := terms[int(data[i]&0x0f)%len(terms)]
		pred := preds[int(data[i+1])%len(preds)]
		// Small constants so bounds from different conjuncts overlap.
		k := tb.Const(int64(int8(data[i+2])) / 8)
		a, b := tm, tb.Const(k.Int)
		switch {
		case data[i]&0x40 != 0:
			// Term-vs-term conjunct: out of quickSolve's scope by
			// construction, exercises the bail-out agreement.
			b = terms[int(data[i+2])%len(terms)]
		case data[i]&0x80 != 0:
			a, b = b, a // constant on the left
		}
		conds = append(conds, tb.Cond(a, pred, b))
	}
	return conds
}
