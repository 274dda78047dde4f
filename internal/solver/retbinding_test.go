package solver

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

// TestPropertyRetBindingKeepsVerdict pins the fact Step II relies on when
// it decides a path's feasibility without its return binding: for a
// conjunction C that does not mention [0], Sat(C) and Sat(C ∧ [0] == t)
// agree, give-up flag included, for any term or constant t. [0] occurs
// only in the binding, with a unit coefficient, so [0] = t always meets
// it. C comes from FuzzSolver's seeds, its checked-in corpus and random
// inputs in the same encoding, with [0] dropped from the vocabulary; t
// ranges over C's terms and constants plus a term C does not mention.
//
// The limits are the defaults and tight split budgets. A MaxConstraints
// budget is left out on purpose: the binding adds two inequalities, so a
// query right at that budget can give up with the binding and be decided
// exactly without it.
func TestPropertyRetBindingKeepsVerdict(t *testing.T) {
	tb := sym.NewTable()
	var terms []*sym.Expr
	for _, tm := range fuzzTerms(tb) {
		if tm.Kind != sym.KRet {
			terms = append(terms, tm)
		}
	}
	inputs := [][]byte{}
	for _, s := range solverSeeds {
		inputs = append(inputs, s.data)
	}
	inputs = append(inputs, fuzzCorpus(t)...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		b := make([]byte, 3*(1+rng.Intn(10)))
		rng.Read(b)
		inputs = append(inputs, b)
	}

	checked, gaveUp := 0, 0
	for _, data := range inputs {
		conds := fuzzConds(tb, data, terms)
		if len(conds) == 0 {
			continue
		}
		c := sym.NewSet(tb, conds)
		for _, l := range []Limits{{}, {MaxSplits: 1}, {MaxSplits: 3}} {
			want, wantGU := satGaveUp(l, c)
			for _, rt := range bindingTargets(tb, conds) {
				bound := c.And(tb, tb.Cond(tb.Ret(), ir.EQ, rt))
				got, gotGU := satGaveUp(l, bound)
				if got != want || gotGU != wantGU {
					t.Fatalf("limits %+v: Sat(C)=%v gaveUp=%v but Sat(C ∧ [0] == %s)=%v gaveUp=%v\nC: %v",
						l, want, wantGU, rt, got, gotGU, c.Conds())
				}
				checked++
				if gotGU {
					gaveUp++
				}
			}
		}
	}
	if checked == 0 || gaveUp == 0 {
		t.Fatalf("checked %d pairs, %d with a give-up; property too weak", checked, gaveUp)
	}
}

// satGaveUp decides cs on a fresh solver with limits l and an empty
// cache, and reports the verdict and whether the query gave up.
func satGaveUp(l Limits, cs sym.Set) (bool, bool) {
	s := NewWithCache(l, NewCache())
	v := s.Sat(cs)
	return v, s.Stats().GaveUp > 0
}

// bindingTargets lists the distinct sides of conds, constants included,
// plus a fresh term none of them mentions.
func bindingTargets(tb *sym.Table, conds []*sym.Expr) []*sym.Expr {
	seen := map[*sym.Expr]bool{}
	out := []*sym.Expr{tb.Fresh("t"), tb.Const(0)}
	for _, c := range conds {
		if c.Kind != sym.KCond {
			continue
		}
		for _, side := range []*sym.Expr{c.A, c.B} {
			if !seen[side] {
				seen[side] = true
				out = append(out, side)
			}
		}
	}
	return out
}

// fuzzCorpus reads the data argument of every checked-in FuzzSolver input.
func fuzzCorpus(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzSolver/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzSolver corpus: %v (%d files)", err, len(files))
	}
	var out [][]byte
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if q, ok := strings.CutPrefix(line, "[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, []byte(s))
			}
		}
		f.Close()
	}
	return out
}
