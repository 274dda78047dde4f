package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// renderOutcome flattens everything the scheduler determinism contract
// covers to one canonical byte string: rendered reports (with witnesses),
// sorted diagnostics, degradation counters, and the solver totals except
// CacheHits, which depends on which worker filled a shared-cache entry
// first. Any schedule-dependence anywhere else in the pipeline shows up as
// a byte diff.
func renderOutcome(res *Result) string {
	var b strings.Builder
	b.WriteString(renderReports(res))
	for _, d := range res.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	st := res.Stats
	fmt.Fprintf(&b, "analyzed=%d paths=%d trunc=%d timeout=%d panic=%d\n",
		st.FuncsAnalyzed, st.PathsEnumerated, st.FuncsTruncated, st.FuncsTimedOut, st.FuncsPanicked)
	fmt.Fprintf(&b, "solver queries=%d sat=%d unsat=%d gaveup=%d\n",
		st.Solver.Queries, st.Solver.Sat, st.Solver.Unsat, st.Solver.GaveUp)
	return b.String()
}

// TestStealDeterminismProperty is the scheduler's determinism property
// test: the work-stealing scheduler, driven through many injected steal
// orders (StealSeed seeds the victim-selection RNG) and worker counts,
// must produce byte-identical reports, diagnostics, and stats to the
// single-worker run, where nobody steals and every function's paths run in
// index order. The run's one solver cache is shared by all workers, as in
// production. A cache hit counts its verdict and give-up flag as the solve
// that stored it did, so Queries, Sat, Unsat and GaveUp are compared
// exactly; only CacheHits, which depends on which worker filled an entry
// first, is left out. Budgets are set tight enough that truncation and
// give-up diagnostics — the outputs most exposed to per-task accounting
// bugs — actually occur.
func TestStealDeterminismProperty(t *testing.T) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 23, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 8, ComplexHelpers: 8, OtherFuncs: 30,
	})
	prog := buildCorpus(t, c.Files)

	opts := func(workers int, seed int64) Options {
		return Options{
			Workers:      workers,
			StealSeed:    seed,
			Exec:         symexec.Config{MaxPaths: 6, MaxSubcases: 4},
			SolverLimits: solver.Limits{MaxSplits: 2},
		}
	}
	want := renderOutcome(Analyze(context.Background(), prog, spec.LinuxDPM(), opts(1, 0)))
	if !strings.Contains(want, "truncated") {
		t.Fatal("corpus produced no truncation diagnostics; oracle too weak")
	}

	for _, workers := range []int{2, 4, 8} {
		for seed := int64(0); seed < 4; seed++ {
			got := renderOutcome(Analyze(context.Background(), prog, spec.LinuxDPM(), opts(workers, seed)))
			if got != want {
				t.Fatalf("workers=%d seed=%d diverged from the single-worker run\n--- got ---\n%s\n--- want ---\n%s",
					workers, seed, got, want)
			}
		}
	}
}

// TestStealSchedulerCountsTasks pins that the scheduler feeds the
// observability layer at any worker count, the single worker included:
// every executed subtree task is counted and every worker registers a
// utilization record.
func TestStealSchedulerCountsTasks(t *testing.T) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 23, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 8, ComplexHelpers: 8, OtherFuncs: 30,
	})
	prog := buildCorpus(t, c.Files)

	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{Workers: workers, Obs: obs.New(nil, reg)})
		if res.Stats.PathsEnumerated == 0 {
			t.Fatal("corpus enumerated no paths")
		}
		// Every subtree of every cold-analyzed function's path trie is
		// exactly one task, and sharing makes tasks fewer than paths.
		subtrees := 0
		for _, name := range res.DB.Names() {
			if s := res.DB.Get(name); !s.Predefined && prog.Funcs[name] != nil {
				subtrees += symexec.New(sym.NewTable(), nil, nil, symexec.Config{}).Prepare(context.Background(), prog.Funcs[name]).NumTasks()
			}
		}
		got := reg.Counter(obs.MTasksExecuted)
		if got != int64(subtrees) {
			t.Errorf("workers=%d: tasks_executed = %d, want %d (one per subtree)", workers, got, subtrees)
		}
		if got >= int64(res.Stats.PathsEnumerated) {
			t.Errorf("workers=%d: tasks_executed = %d, want fewer than the %d paths", workers, got, res.Stats.PathsEnumerated)
		}
		if reg.NumWorkers() != workers {
			t.Errorf("workers=%d: registered worker records = %d", workers, reg.NumWorkers())
		}
		// tasks_stolen is schedule-dependent (may legitimately be zero on a
		// fast corpus), but can never exceed tasks_executed, and a lone
		// worker has nobody to steal from.
		stolen, tasks := reg.Counter(obs.MTasksStolen), reg.Counter(obs.MTasksExecuted)
		if stolen > tasks || (workers == 1 && stolen != 0) {
			t.Errorf("workers=%d: tasks_stolen = %d, tasks_executed = %d", workers, stolen, tasks)
		}
	}
}

// TestTrieGiveUpCountedPerPath pins the DegradeSolverGiveUp count when a
// query that gives up sits in a trie prefix shared by two paths: the
// Py_XDECREF fork below two disequalities exceeds a one-split budget, and
// both c-paths run through it. Executing each path alone from the entry
// issued that query once per path, so the trie must count it once per
// path too. The count is the one that per-path execution reported: each
// of the 2 paths gives up on the 2 Py_XDECREF forks and on its 2
// finalized entries (8), and Step III's pair queries add 4.
func TestTrieGiveUpCountedPerPath(t *testing.T) {
	prog := buildCorpus(t, map[string]string{"f.c": `
int f(PyObject *o, int a, int b, int c) {
    if (a != 1) {
        if (b != 2) {
            Py_XDECREF(o);
            if (c > 0)
                return 1;
            return 2;
        }
    }
    return 0;
}
`})
	for _, workers := range []int{1, 4} {
		res := Analyze(context.Background(), prog, spec.PythonC(), Options{
			Workers:      workers,
			SolverLimits: solver.Limits{MaxSplits: 1},
		})
		var got []string
		for _, d := range res.Diagnostics {
			if d.Kind == DegradeSolverGiveUp {
				got = append(got, d.String())
			}
		}
		want := "f: solver-give-up: 12 solver queries exceeded limits and answered SAT conservatively"
		if len(got) != 1 || got[0] != want {
			t.Errorf("workers=%d: give-up diagnostics %q, want [%q]", workers, got, want)
		}
	}
}
