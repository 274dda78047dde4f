package solver

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

// TestCacheSharedAcrossForks checks the per-worker solvers a run builds over
// its one cache: a later worker hits the verdict an earlier one cached, and
// each keeps counters of its own.
func TestCacheSharedAcrossForks(t *testing.T) {
	cache := NewCache()
	parent := NewWithCache(Limits{}, cache)
	cs := set(sym.Cond(sym.Arg("a"), ir.GT, sym.Arg("b")))
	if !parent.Sat(cs) {
		t.Fatal("query should be SAT")
	}
	child := NewWithCache(parent.Limits(), cache)
	if !child.Sat(cs) {
		t.Fatal("query should be SAT in fork")
	}
	st := child.Stats()
	if st.CacheHits != 1 {
		t.Errorf("fork missed the shared cache: %+v", st)
	}
	if st.Queries != 1 {
		t.Errorf("fork must have fresh counters, got %+v", st)
	}
	if parent.Stats().Queries != 1 {
		t.Errorf("fork polluted parent counters: %+v", parent.Stats())
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Queries: 3, CacheHits: 1, Sat: 2, Unsat: 1, GaveUp: 1}
	b := Stats{Queries: 2, CacheHits: 2, Sat: 1, Unsat: 1}
	a.Add(b)
	want := Stats{Queries: 5, CacheHits: 3, Sat: 3, Unsat: 2, GaveUp: 1}
	if a != want {
		t.Errorf("got %+v, want %+v", a, want)
	}
}

func TestNewWithCacheSharesAcrossSolvers(t *testing.T) {
	cache := NewCache()
	s1 := NewWithCache(Limits{}, cache)
	s2 := NewWithCache(Limits{}, cache)
	cs := set(sym.Cond(sym.Arg("x"), ir.LE, sym.Arg("y")))
	if !s1.Sat(cs) || !s2.Sat(cs) {
		t.Fatal("query should be SAT on both solvers")
	}
	if s2.Stats().CacheHits != 1 {
		t.Errorf("second solver missed shared cache: %+v", s2.Stats())
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
}

func TestNilCacheDisablesMemoization(t *testing.T) {
	s := NewWithCache(Limits{}, nil)
	cs := set(sym.Cond(sym.Arg("x"), ir.LE, sym.Arg("y")))
	s.Sat(cs)
	s.Sat(cs)
	if s.Stats().CacheHits != 0 {
		t.Errorf("nil cache must disable memoization: %+v", s.Stats())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	cache := NewCache()
	queries := make([]sym.Set, 40)
	for i := range queries {
		queries[i] = set(
			sym.Cond(sym.Arg("a"), ir.GE, sym.Arg("b")), // forces the full procedure
			sym.Cond(sym.Arg("a"), ir.GE, sym.Const(int64(i%7))),
			sym.Cond(sym.Arg("b"), ir.LT, sym.Const(int64(i%5))),
		)
	}
	var wg sync.WaitGroup
	results := make([][]bool, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slv := NewWithCache(Limits{}, cache)
			results[w] = make([]bool, len(queries))
			for i, q := range queries {
				results[w][i] = slv.Sat(q)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range queries {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d query %d verdict diverged", w, i)
			}
		}
	}
}
