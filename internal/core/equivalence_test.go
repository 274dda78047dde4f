package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/spec"
	"repro/internal/sym"
)

// buildCorpus lowers a generated file set into one program.
func buildCorpus(t *testing.T, files map[string]string) *ir.Program {
	t.Helper()
	prog, err := lower.Program(files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// renderReports flattens an analysis result to a canonical byte form:
// every report's one-line diagnostic plus its full Detail() evidence
// (entries, deltas, witness), in the deterministic sorted order.
func renderReports(res *Result) string {
	var b strings.Builder
	for _, r := range res.ReportsByFunction() {
		b.WriteString(r.String())
		b.WriteByte('\n')
		b.WriteString(r.Detail())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOptimizationsAreReportPreserving runs the full pipeline over seeded
// kernelgen and pycgen corpora twice — once with every performance layer
// enabled (hash-consing, shared solver cache, Step III bucketing and its
// pre-filter) and once with all three disabled — and requires byte-identical
// rendered reports, witnesses included.
func TestOptimizationsAreReportPreserving(t *testing.T) {
	type corpus struct {
		name  string
		prog  *ir.Program
		specs *spec.Specs
	}
	kc := kernelgen.Generate(kernelgen.Config{
		Seed: 9, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 50,
	})
	pm := pycgen.Generate(pycgen.Config{
		Name: "equiv", Seed: 4,
		Mix: pycgen.Mix{Common: 12, RIDOnly: 10, CpyOnly: 4, Correct: 15},
	})
	corpora := []corpus{
		{"kernelgen", buildCorpus(t, kc.Files), spec.LinuxDPM()},
		{"pycgen", buildCorpus(t, pm.Files), spec.PythonC()},
	}

	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			optimized := renderReports(Analyze(context.Background(), c.prog, c.specs, Options{}))

			prev := sym.SetInterning(false)
			defer sym.SetInterning(prev)
			plain := renderReports(Analyze(context.Background(), c.prog, c.specs, Options{
				NoCache:     true,
				NoBucketing: true,
			}))

			if optimized == "" {
				t.Fatal("no reports rendered; corpus not exercising the pipeline")
			}
			if optimized != plain {
				t.Errorf("optimizations changed the reports\n--- optimized ---\n%s\n--- plain ---\n%s",
					optimized, plain)
			}
		})
	}
}

// TestSharedCacheDeterministicAcrossWorkers analyzes the same corpus with
// Workers=1 and Workers=GOMAXPROCS (at least 4, so the SCC scheduler
// really interleaves) and requires identical ordered reports: the shared
// solver cache must never make the outcome depend on which worker solved
// a constraint set first.
func TestSharedCacheDeterministicAcrossWorkers(t *testing.T) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 11, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 8, ComplexHelpers: 6, OtherFuncs: 40,
	})
	prog := buildCorpus(t, c.Files)

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	seq := renderReports(Analyze(context.Background(), prog, spec.LinuxDPM(), Options{Workers: 1}))
	if seq == "" {
		t.Fatal("no reports rendered; corpus not exercising the pipeline")
	}
	for round := 0; round < 3; round++ {
		par := renderReports(Analyze(context.Background(), prog, spec.LinuxDPM(), Options{Workers: workers}))
		if par != seq {
			t.Fatalf("round %d: workers=%d reports differ from workers=1\n--- parallel ---\n%s\n--- workers=1 ---\n%s",
				round, workers, par, seq)
		}
	}
}

// TestParallelSolverStatsAggregated pins the satellite fix: per-worker
// solver counters must survive into Result.Stats when Workers > 1, and the
// shared cache must actually be consulted across workers.
func TestParallelSolverStatsAggregated(t *testing.T) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 11, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 8, ComplexHelpers: 6, OtherFuncs: 40,
	})
	prog := buildCorpus(t, c.Files)

	res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{Workers: 4})
	st := res.Stats.Solver
	if st.Queries == 0 {
		t.Fatal("parallel analysis dropped solver stats (Queries == 0)")
	}
	if st.Sat+st.Unsat+st.CacheHits == 0 {
		t.Error("parallel analysis dropped solver verdict counters")
	}
	// No CacheHits assertion: single-variable queries bypass the cache by
	// design, so a corpus may legally produce zero hits.
}
