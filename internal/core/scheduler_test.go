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
// test: runs at 2, 4 and 8 workers must produce byte-identical reports,
// diagnostics, and stats to the single-worker run. The run's one solver
// cache is shared by all workers, as in production. A cache hit counts its
// verdict and give-up flag as the solve that stored it did, so Queries,
// Sat, Unsat and GaveUp are compared exactly; only CacheHits, which
// depends on which worker filled an entry first, is left out. Budgets are
// set tight enough that truncation and give-up diagnostics actually occur.
func TestStealDeterminismProperty(t *testing.T) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 23, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 8, ComplexHelpers: 8, OtherFuncs: 30,
	})
	prog := buildCorpus(t, c.Files)

	opts := func(workers int) Options {
		return Options{
			Workers:      workers,
			Exec:         symexec.Config{MaxPaths: 6, MaxSubcases: 4},
			SolverLimits: solver.Limits{MaxSplits: 2},
		}
	}
	want := renderOutcome(Analyze(context.Background(), prog, spec.LinuxDPM(), opts(1)))
	if !strings.Contains(want, "truncated") {
		t.Fatal("corpus produced no truncation diagnostics; oracle too weak")
	}

	for _, workers := range []int{2, 4, 8} {
		got := renderOutcome(Analyze(context.Background(), prog, spec.LinuxDPM(), opts(workers)))
		if got != want {
			t.Fatalf("workers=%d diverged from the single-worker run\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, want)
		}
	}
}

// TestStealSchedulerCountsTasks pins that the scheduler feeds the
// observability layer at any worker count, the single worker included:
// each analyzed function is one task, nothing is stolen, and every worker
// registers a utilization record.
func TestStealSchedulerCountsTasks(t *testing.T) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 23, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 8, ComplexHelpers: 8, OtherFuncs: 30,
	})
	prog := buildCorpus(t, c.Files)

	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{Workers: workers, Obs: obs.New(nil, reg)})
		if res.Stats.FuncsAnalyzed == 0 {
			t.Fatal("corpus analyzed no functions")
		}
		if got := reg.Counter(obs.MTasksExecuted); got != int64(res.Stats.FuncsAnalyzed) {
			t.Errorf("workers=%d: tasks_executed = %d, want %d (one per analyzed function)", workers, got, res.Stats.FuncsAnalyzed)
		}
		if got := reg.Counter(obs.MTasksStolen); got != 0 {
			t.Errorf("workers=%d: tasks_stolen = %d, want 0", workers, got)
		}
		if reg.NumWorkers() != workers {
			t.Errorf("workers=%d: registered worker records = %d", workers, reg.NumWorkers())
		}
		var tasks int64
		for _, w := range reg.Snapshot().Workers {
			tasks += w.Tasks
		}
		if tasks != int64(res.Stats.FuncsAnalyzed) {
			t.Errorf("workers=%d: worker records hold %d tasks, want %d", workers, tasks, res.Stats.FuncsAnalyzed)
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
