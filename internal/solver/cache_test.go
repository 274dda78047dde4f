package solver

import (
	"math/rand"
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

// TestCacheTransparent is the oracle for the shared solver cache. Over
// FuzzSolver's seeds and random inputs in its encoding, under each fuzz
// limit setting, every query's verdict and give-up flag are the same from
// a shared cache as from a fresh solver: first through Sat, each query on
// a cache warmed by the queries before it, then in reverse through Sat
// and through a PairBatch, on a cache warmed by every query. A hit counts
// exactly as the solve that stored it, so each solver's Sat, Unsat and
// GaveUp totals equal the fresh solvers' whatever the cache held.
func TestCacheTransparent(t *testing.T) {
	inputs := [][]byte{}
	for _, s := range solverSeeds {
		inputs = append(inputs, s.data)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		b := make([]byte, 3*(1+rng.Intn(6)))
		rng.Read(b)
		inputs = append(inputs, b)
	}
	type query struct {
		base, other sym.Set
		sat, gaveUp bool
	}
	hits, gaveUps := 0, 0
	for sel := uint8(0); sel < 4; sel++ {
		l := fuzzLimits(sel)
		var qs []query
		var want Stats
		for _, data := range inputs {
			conds := fuzzConds(data, fuzzTerms())
			q := query{base: sym.NewSet(conds[:len(conds)/2]), other: sym.NewSet(conds[len(conds)/2:])}
			q.sat, q.gaveUp = satGaveUp(l, q.base.AndSet(q.other))
			qs = append(qs, q)
			want.Queries++
			if q.sat {
				want.Sat++
			} else {
				want.Unsat++
			}
			if q.gaveUp {
				want.GaveUp++
			}
		}
		cache := NewCache()
		plain, again, batch := NewWithCache(l, cache), NewWithCache(l, cache), NewWithCache(l, cache)
		ask := func(s *Solver, i int, sat func() bool) {
			before := s.Stats()
			got := sat()
			d := s.Stats().Sub(before)
			if got != qs[i].sat || (d.GaveUp > 0) != qs[i].gaveUp {
				t.Fatalf("limits %+v, query %d: cached sat=%v gaveUp=%v, fresh sat=%v gaveUp=%v\nconds: %v",
					l, i, got, d.GaveUp > 0, qs[i].sat, qs[i].gaveUp, qs[i].base.AndSet(qs[i].other).Conds())
			}
		}
		for i, q := range qs {
			ask(plain, i, func() bool { return plain.Sat(q.base.AndSet(q.other)) })
		}
		for i := len(qs) - 1; i >= 0; i-- {
			q := qs[i]
			ask(again, i, func() bool { return again.Sat(q.base.AndSet(q.other)) })
			ask(batch, i, func() bool { return batch.Pairs(q.base).Sat(q.other) })
		}
		for name, s := range map[string]*Solver{"Sat": plain, "warm Sat": again, "PairBatch": batch} {
			got := s.Stats()
			hits += got.CacheHits
			got.CacheHits = 0
			if got != want {
				t.Errorf("limits %+v, %s: counters %+v, fresh solvers %+v", l, name, got, want)
			}
		}
		gaveUps += want.GaveUp
	}
	if hits == 0 || gaveUps == 0 {
		t.Fatalf("%d cache hits, %d give-ups; oracle too weak", hits, gaveUps)
	}
}
