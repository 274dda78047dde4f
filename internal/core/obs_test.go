package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/spec"
)

// giveUpSrc builds n functions whose IPP checks issue solver queries with
// two disequality conditions each, so a MaxSplits=1 budget forces the slow
// path to give up (answer SAT conservatively) at least once per function.
func giveUpSrc(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
int f%d(struct device *d, int a, int b) {
    int ret = pm_runtime_get_sync(d);
    if (a != %d) {
        if (b != %d) {
            return -1;
        }
    }
    pm_runtime_put(d);
    return 0;
}
`, i, i, i+1)
	}
	return b.String()
}

// TestStatsSolverExactUnderWorkers is the regression test for the
// Stats.Solver aggregation: solver counters are now incremented in the
// shared registry at query time and read back as a delta after all workers
// exit and diagnostics are finalized, so the totals must be exact (and
// identical across worker counts when caching is off), and the
// per-function solver-give-up diagnostics must add up to the total.
// Previously the stats were snapshotted per scheduler before the
// diagnostics pass, which under Workers>1 could race with late workers.
func TestStatsSolverExactUnderWorkers(t *testing.T) {
	prog, err := lower.SourceString("giveup.c", giveUpSrc(12))
	if err != nil {
		t.Fatalf("lower: %v", err)
	}

	run := func(workers int) *Result {
		return Analyze(context.Background(), prog, spec.LinuxDPM(), Options{
			Workers:      workers,
			NoCache:      true, // per-function query counts become scheduling-independent
			SolverLimits: solver.Limits{MaxSplits: 1},
		})
	}
	seq := run(1)
	par := run(4)

	for _, tc := range []struct {
		name string
		res  *Result
	}{{"workers=1", seq}, {"workers=4", par}} {
		s := tc.res.Stats.Solver
		if s.Queries == 0 {
			t.Fatalf("%s: no solver queries issued", tc.name)
		}
		if s.GaveUp == 0 {
			t.Fatalf("%s: expected give-ups under MaxSplits=1", tc.name)
		}
		// Every query is answered exactly once: from the cache, SAT, or
		// UNSAT. Give-ups answer SAT, so they are a subset of Sat.
		if s.Queries != s.CacheHits+s.Sat+s.Unsat {
			t.Errorf("%s: queries=%d != cachehits=%d + sat=%d + unsat=%d",
				tc.name, s.Queries, s.CacheHits, s.Sat, s.Unsat)
		}
		if s.GaveUp > s.Sat {
			t.Errorf("%s: gaveup=%d > sat=%d", tc.name, s.GaveUp, s.Sat)
		}
		// The per-function give-up diagnostics must account for every
		// give-up in the totals.
		diagGiveUps := 0
		for _, d := range tc.res.Diagnostics {
			if d.Kind != DegradeSolverGiveUp {
				continue
			}
			var n int
			if _, err := fmt.Sscanf(d.Cause, "%d solver queries", &n); err != nil {
				t.Fatalf("%s: unparseable give-up cause %q: %v", tc.name, d.Cause, err)
			}
			diagGiveUps += n
		}
		if diagGiveUps != s.GaveUp {
			t.Errorf("%s: per-function give-up diagnostics sum to %d, Stats.Solver.GaveUp = %d",
				tc.name, diagGiveUps, s.GaveUp)
		}
	}

	// With the cache off, each function is analyzed exactly once with the
	// same budgets regardless of scheduling, so the totals must agree
	// exactly between single-worker and parallel runs.
	if seq.Stats.Solver != par.Stats.Solver {
		t.Errorf("solver stats diverge across worker counts:\nworkers=1: %+v\nworkers=4: %+v",
			seq.Stats.Solver, par.Stats.Solver)
	}
}

// TestStatsSolverMatchesRegistry checks that a caller-supplied registry
// sees exactly what Stats.Solver reports (the stats are read back from the
// registry, and a fresh registry starts at zero, so the two views must be
// identical).
func TestStatsSolverMatchesRegistry(t *testing.T) {
	prog, err := lower.SourceString("giveup.c", giveUpSrc(6))
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	reg := obs.NewRegistry()
	res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{
		Workers: 4,
		Obs:     obs.New(nil, reg),
	})
	got := solver.Stats{
		Queries:   int(reg.Counter(obs.MSolverQueries)),
		CacheHits: int(reg.Counter(obs.MSolverCacheHits)),
		Sat:       int(reg.Counter(obs.MSolverSat)),
		Unsat:     int(reg.Counter(obs.MSolverUnsat)),
		GaveUp:    int(reg.Counter(obs.MSolverGaveUp)),
	}
	if got != res.Stats.Solver {
		t.Errorf("registry view %+v != Stats.Solver %+v", got, res.Stats.Solver)
	}
	if res.Stats.Solver.Queries == 0 {
		t.Error("no solver queries recorded")
	}
	// The pipeline counters must be coherent with the run stats, too.
	if n := int(reg.Counter(obs.MFuncsAnalyzed)); n != res.Stats.FuncsAnalyzed {
		t.Errorf("funcs_analyzed counter = %d, Stats.FuncsAnalyzed = %d", n, res.Stats.FuncsAnalyzed)
	}
	if n := int(reg.Counter(obs.MPathsEnumerated)); n != res.Stats.PathsEnumerated {
		t.Errorf("paths_enumerated counter = %d, Stats.PathsEnumerated = %d", n, res.Stats.PathsEnumerated)
	}
	if n := reg.Counter(obs.MIPPConfirmed); int(n) != len(res.Reports) {
		t.Errorf("ipp_confirmed counter = %d, reports = %d", n, len(res.Reports))
	}
}

// TestObsOverheadAllocFree is the pipeline-level allocation guard for the
// no-tracer observability hooks: an analysis run with a caller-supplied
// registry (counters + phase histograms on, per-query timing off) must
// allocate no more than the same run with no observer at all. The hooks
// are atomic adds on pre-sized arrays, so any regression here means a
// hook started boxing, capturing, or formatting on the hot path.
func TestObsOverheadAllocFree(t *testing.T) {
	prog, err := lower.SourceString("giveup.c", giveUpSrc(4))
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	specs := spec.LinuxDPM()
	ctx := context.Background()
	// NoCache keeps per-run work identical; Workers=1 keeps it
	// deterministic so AllocsPerRun gets stable samples.
	run := func(o *obs.Obs) {
		Analyze(ctx, prog, specs, Options{Workers: 1, NoCache: true, Obs: o})
	}
	reg := obs.NewRegistry()
	withObs := testing.AllocsPerRun(10, func() { run(obs.New(nil, reg)) })
	// Per-request child registries (the daemon's exact-delta path) forward
	// every Count/Observe to the parent with plain atomic adds; the chain
	// walk must stay just as allocation-free as the flat registry.
	child := reg.Child()
	withChild := testing.AllocsPerRun(10, func() { run(obs.New(nil, child)) })
	baseline := testing.AllocsPerRun(10, func() { run(nil) })
	// The nil-obs run allocates its own private registry inside Analyze, so
	// the instrumented run should be at or below baseline; a small slack
	// absorbs runtime noise (map growth timing, GC assists). Under the race
	// detector sync.Pool drops puts at random, so per-run alloc counts are
	// nondeterministic and only the non-race build can compare them.
	if !raceEnabled && withObs > baseline+5 {
		t.Errorf("observed run allocates %.0f/op vs %.0f/op baseline; hooks are allocating",
			withObs, baseline)
	}
	if !raceEnabled && withChild > baseline+5 {
		t.Errorf("child-registry run allocates %.0f/op vs %.0f/op baseline; parent forwarding is allocating",
			withChild, baseline)
	}
}
