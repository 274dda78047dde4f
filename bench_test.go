// Package repro_test holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation (§6), plus
// ablation benchmarks for the design decisions DESIGN.md calls out. Each
// benchmark reports domain metrics (reports, confirmed bugs, category
// counts) alongside time, so `go test -bench=. -benchmem` regenerates the
// paper's numbers; cmd/ridbench prints the same data as formatted tables.
package repro_test

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"repro/internal/baseline/cpyrule"
	"repro/internal/core"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/spec"
	"repro/internal/symexec"
	"repro/rid"
)

// mustProgram builds one program from generated files.
func mustProgram(b *testing.B, files map[string]string) *ir.Program {
	b.Helper()
	prog, err := lower.Program(files, lower.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func mustSource(b *testing.B, src string) *ir.Program {
	b.Helper()
	prog, err := lower.SourceString("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// ---------------------------------------------------------------------------
// Figures 1/2, 8, 9, 10 — the paper's example analyses.

const figure2Src = `
extern int pm_runtime_get_sync(struct device *d);
extern void inc_pmcount(struct device *d);

int reg_read(struct device *d, int reg) {
    if (d) {
        int ret;
        ret = random();
        if (ret >= 0)
            return ret;
    }
    return -1;
}

int foo(struct device *dev) {
    assert(dev != NULL);
    int v = reg_read(dev, 0x54);
    if (v <= 0)
        goto exit;
    inc_pmcount(dev);
exit:
    return 0;
}
`

const incSpec = `
summary inc_pmcount(d) {
  entry { cons: [d] != null; changes: [d].pm += 1; return: ; }
  entry { cons: [d] == null; changes: ; return: ; }
}
`

func BenchmarkFigure2Foo(b *testing.B) {
	prog := mustSource(b, figure2Src)
	specs := spec.LinuxDPM()
	specs.Merge(spec.MustParse("inc", incSpec))
	b.ReportAllocs()
	var reports int
	for i := 0; i < b.N; i++ {
		res := core.Analyze(context.Background(), prog, specs, core.Options{})
		reports = len(res.Reports)
	}
	if reports != 1 {
		b.Fatalf("figure 2 IPP count = %d, want 1", reports)
	}
	b.ReportMetric(float64(reports), "reports")
}

func benchPattern(b *testing.B, mix kernelgen.Mix, wantReports int) {
	c := kernelgen.Generate(kernelgen.Config{Seed: 1, Mix: mix})
	prog := mustProgram(b, c.Files)
	b.ReportAllocs()
	var reports int
	for i := 0; i < b.N; i++ {
		res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{})
		reports = 0
		for _, r := range res.Reports {
			if _, labeled := c.Truth[r.Fn]; labeled {
				reports++
			}
		}
	}
	if reports != wantReports {
		b.Fatalf("pattern reports = %d, want %d", reports, wantReports)
	}
	b.ReportMetric(float64(reports), "reports")
}

func BenchmarkFigure8Pattern(b *testing.B) {
	benchPattern(b, kernelgen.Mix{BugGetErrReturn: 10}, 10)
}

func BenchmarkFigure9Pattern(b *testing.B) {
	benchPattern(b, kernelgen.Mix{BugWrapperErrPath: 10}, 10)
}

func BenchmarkFigure10Missed(b *testing.B) {
	// Figure 10's bug class is real but outside RID's reach: zero reports.
	benchPattern(b, kernelgen.Mix{BugIRQStyle: 10}, 0)
}

// ---------------------------------------------------------------------------
// Table 1 — function classification.

func BenchmarkTable1Classification(b *testing.B) {
	cfg := experiments.DefaultTable1()
	c := kernelgen.Generate(kernelgen.Config{
		Seed: cfg.Seed, Mix: kernelgen.PaperMix(),
		SimpleHelpers: cfg.Helpers, ComplexHelpers: cfg.Complex, OtherFuncs: cfg.Other,
	})
	prog := mustProgram(b, c.Files)
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{})
	}
	cl := res.Classification
	b.ReportMetric(float64(cl.NumRefcount), "cat1")
	b.ReportMetric(float64(cl.NumAffectingAnalyzed), "cat2-analyzed")
	b.ReportMetric(float64(cl.NumAffectingUnanalyzed), "cat2-skipped")
	b.ReportMetric(float64(cl.NumOther), "cat3")
}

// BenchmarkFacadeTable1 is one scan of the Table-1 tree through the rid
// package, the way a caller (and ridperf's batch_wide) does it: AddSource
// per file, then RunContext. Only category-1 and -2 bodies are lowered.
func BenchmarkFacadeTable1(b *testing.B) {
	cfg := experiments.DefaultTable1()
	c := kernelgen.Generate(kernelgen.Config{
		Seed: cfg.Seed, Mix: kernelgen.PaperMix(),
		SimpleHelpers: cfg.Helpers, ComplexHelpers: cfg.Complex, OtherFuncs: cfg.Other,
	})
	names := make([]string, 0, len(c.Files))
	for n := range c.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	b.ReportAllocs()
	b.ResetTimer()
	var res *rid.Result
	for i := 0; i < b.N; i++ {
		a := rid.New(rid.LinuxDPMSpecs())
		for _, n := range names {
			if err := a.AddSource(n, c.Files[n]); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		if res, err = a.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MetricValue("funcs_lowered")), "funcs-lowered")
	b.ReportMetric(float64(res.FuncsTotal), "funcs")
}

// BenchmarkLoadTable1 loads the Table-1 tree into a program, the step
// every scan begins with: each file is checked and indexed, and no body
// is built. Besides allocs/op it reports the heap the loaded program
// keeps live after a collection.
func BenchmarkLoadTable1(b *testing.B) {
	cfg := experiments.DefaultTable1()
	c := kernelgen.Generate(kernelgen.Config{
		Seed: cfg.Seed, Mix: kernelgen.PaperMix(),
		SimpleHelpers: cfg.Helpers, ComplexHelpers: cfg.Complex, OtherFuncs: cfg.Other,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustProgram(b, c.Files)
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	prog := mustProgram(b, c.Files)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(prog)
	b.ReportMetric(float64(ms.HeapAlloc-before)/(1<<20), "live-MiB")
}

// BenchmarkLowerBodies builds every body of kernelgen scale 8 and of the
// Table-1 tree, both seed 400: each is parsed from its place in the
// source into recycled memory, lowered, and frozen into exact-size
// arrays. Loading is outside the timer; allocs/body and B/body are what
// the bodies cost.
func BenchmarkLowerBodies(b *testing.B) {
	t := experiments.DefaultTable1()
	for _, c := range []struct {
		name  string
		files map[string]string
	}{
		{"kernel8", experiments.ServeCorpus(8, 400)},
		{"table1", kernelgen.Generate(kernelgen.Config{
			Seed: 400, Mix: kernelgen.PaperMix(),
			SimpleHelpers: t.Helpers, ComplexHelpers: t.Complex, OtherFuncs: t.Other,
		}).Files},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ms runtime.MemStats
			var mallocs, bytes uint64
			bodies := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog := mustProgram(b, c.files)
				runtime.ReadMemStats(&ms)
				m0, b0 := ms.Mallocs, ms.TotalAlloc
				b.StartTimer()
				for _, name := range prog.Order {
					prog.Funcs[name].Body()
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
				bytes += ms.TotalAlloc - b0
				bodies += len(prog.Order)
				b.StartTimer()
			}
			b.ReportMetric(float64(mallocs)/float64(bodies), "allocs/body")
			b.ReportMetric(float64(bytes)/float64(bodies), "B/body")
		})
	}
}

// ---------------------------------------------------------------------------
// Table 2 — RID vs the Cpychecker-style escape rule.

func BenchmarkTable2PythonC(b *testing.B) {
	type mod struct {
		prog  *ir.Program
		truth map[string]pycgen.Class
	}
	var mods []mod
	for _, cfg := range pycgen.PaperConfigs() {
		m := pycgen.Generate(cfg)
		mods = append(mods, mod{mustProgram(b, m.Files), m.Truth})
	}
	specs := spec.PythonC()
	b.ReportAllocs()
	b.ResetTimer()
	var common, ridOnly, cpyOnly int
	for i := 0; i < b.N; i++ {
		common, ridOnly, cpyOnly = 0, 0, 0
		for _, m := range mods {
			res := core.Analyze(context.Background(), m.prog, specs, core.Options{})
			rid := map[string]bool{}
			for _, r := range res.Reports {
				rid[r.Fn] = true
			}
			cpy := map[string]bool{}
			for _, r := range cpyrule.New(specs, cpyrule.Config{}).Check(m.prog) {
				cpy[r.Fn] = true
			}
			for fn, cls := range m.truth {
				if cls == pycgen.ClassCorrect {
					continue
				}
				switch {
				case rid[fn] && cpy[fn]:
					common++
				case rid[fn]:
					ridOnly++
				case cpy[fn]:
					cpyOnly++
				}
			}
		}
	}
	if common != 86 || ridOnly != 114 || cpyOnly != 16 {
		b.Fatalf("Table 2 = %d/%d/%d, want 86/114/16", common, ridOnly, cpyOnly)
	}
	b.ReportMetric(float64(common), "common")
	b.ReportMetric(float64(ridOnly), "rid-only")
	b.ReportMetric(float64(cpyOnly), "cpy-only")
}

// ---------------------------------------------------------------------------
// §6.2 — DPM bug reports vs confirmed bugs.

func BenchmarkSection62DPMBugs(b *testing.B) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 317, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 100,
	})
	prog := mustProgram(b, c.Files)
	b.ReportAllocs()
	b.ResetTimer()
	var reports, confirmed int
	for i := 0; i < b.N; i++ {
		res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{})
		reports = len(res.Reports)
		confirmed = 0
		hit := map[string]bool{}
		for _, r := range res.Reports {
			hit[r.Fn] = true
		}
		for fn, info := range c.Truth {
			if info.Real && hit[fn] {
				confirmed++
			}
		}
	}
	b.ReportMetric(float64(reports), "reports")
	b.ReportMetric(float64(confirmed), "confirmed")
}

// ---------------------------------------------------------------------------
// §6.3 — pm_runtime_get misuse census.

func BenchmarkSection63GetMisuse(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.MisuseResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Misuse(context.Background(), 317, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r.HandledSites != 96 || r.MissingPut != 67 || r.RIDDetected != 40 {
		b.Fatalf("§6.3 = %d/%d/%d, want 96/67/40", r.HandledSites, r.MissingPut, r.RIDDetected)
	}
	b.ReportMetric(float64(r.HandledSites), "sites")
	b.ReportMetric(float64(r.MissingPut), "missing-put")
	b.ReportMetric(float64(r.RIDDetected), "rid-detected")
}

// ---------------------------------------------------------------------------
// §6.5 — performance scaling and SCC-parallel analysis.

func benchScale(b *testing.B, scale, workers int) {
	m := kernelgen.PaperMix()
	c := kernelgen.Generate(kernelgen.Config{
		Seed: int64(100 + scale),
		Mix: kernelgen.Mix{
			CorrectBalanced: m.CorrectBalanced * scale, CorrectErrHandled: m.CorrectErrHandled * scale,
			CorrectWrapperUse: m.CorrectWrapperUse * scale, CorrectHeld: m.CorrectHeld * scale,
			BugGetErrReturn: m.BugGetErrReturn * scale, BugWrapperErrPath: m.BugWrapperErrPath * scale,
			BugWrapperMisuse: m.BugWrapperMisuse * scale, BugDoublePut: m.BugDoublePut * scale,
			BugIRQStyle: m.BugIRQStyle * scale, BugAsymmetricErr: m.BugAsymmetricErr * scale,
			BugLoopErrPath: m.BugLoopErrPath * scale, CorrectLoop: m.CorrectLoop * scale,
			CorrectSwitch:  m.CorrectSwitch * scale,
			BugDeepWrapper: m.BugDeepWrapper * scale,
			FPBitmask:      m.FPBitmask * scale,
		},
		SimpleHelpers: 10 * scale, ComplexHelpers: 8 * scale, OtherFuncs: 200 * scale,
	})
	prog := mustProgram(b, c.Files)
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{Workers: workers})
	}
	b.ReportMetric(float64(res.Stats.FuncsTotal), "functions")
	b.ReportMetric(float64(res.Stats.FuncsAnalyzed), "analyzed")
	// Throughput: Step I paths enumerated per wall-clock second. The path
	// count is fixed per corpus (scheduling never changes it — see the
	// determinism tests), so this is the honest cross-workers comparison.
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(res.Stats.PathsEnumerated)*float64(b.N)/sec, "paths/sec")
	}
}

func BenchmarkSection65Scaling(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		b.Run(sizeName(scale), func(b *testing.B) { benchScale(b, scale, 1) })
	}
}

func BenchmarkSection65Parallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(workersName(workers), func(b *testing.B) { benchScale(b, 2, workers) })
	}
}

func sizeName(scale int) string { return "scale" + itoa(scale) }
func workersName(w int) string  { return "workers" + itoa(w) }
func itoa(n int) string         { return string(rune('0' + n)) }

// ---------------------------------------------------------------------------
// Ablations.

// ablationProgram is a mid-size corpus shared by the ablation benchmarks.
func ablationProgram(b *testing.B) (*ir.Program, *kernelgen.Corpus) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 9, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 50,
	})
	return mustProgram(b, c.Files), c
}

// BenchmarkAblationNoPruning disables the Algorithm-1 line-6 feasibility
// check when forking on callee entries: more dead sub-cases survive to
// finalization.
func BenchmarkAblationNoPruning(b *testing.B) {
	prog, _ := ablationProgram(b)
	for _, pruning := range []bool{true, false} {
		name := "prune-on"
		if !pruning {
			name = "prune-off"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{Exec: symexec.Config{
				MaxPaths: 100, MaxSubcases: 10, NoPrune: !pruning,
			}}
			b.ReportAllocs()
			var reports int
			for i := 0; i < b.N; i++ {
				res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), opts)
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkAblationKeepLocals disables the local-condition projection of
// §3.3.3. Entries keep conditions on locals, which makes path pairs
// spuriously distinguishable: the IPP count collapses, demonstrating that
// the projection is what makes entries caller-comparable.
func BenchmarkAblationKeepLocals(b *testing.B) {
	prog, _ := ablationProgram(b)
	for _, keep := range []bool{false, true} {
		name := "project-locals"
		if keep {
			name = "keep-locals"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{Exec: symexec.Config{
				MaxPaths: 100, MaxSubcases: 10, KeepLocalConds: keep,
			}}
			b.ReportAllocs()
			var reports int
			for i := 0; i < b.N; i++ {
				res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), opts)
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkAblationCat2Limit sweeps the §5.2 category-2 complexity gate.
func BenchmarkAblationCat2Limit(b *testing.B) {
	prog, _ := ablationProgram(b)
	for _, limit := range []int{1, 3, 8} {
		b.Run("conds"+itoa(limit), func(b *testing.B) {
			b.ReportAllocs()
			var analyzed int
			for i := 0; i < b.N; i++ {
				res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{MaxCat2Conds: limit})
				analyzed = res.Stats.FuncsAnalyzed
			}
			b.ReportMetric(float64(analyzed), "analyzed")
		})
	}
}

// BenchmarkAblationBudgets sweeps the path and sub-case budgets of §6.1
// (the paper uses 100 and 10).
func BenchmarkAblationBudgets(b *testing.B) {
	prog, _ := ablationProgram(b)
	for _, budget := range []struct {
		paths, subs int
		name        string
	}{
		{10, 2, "paths10-subs2"},
		{100, 10, "paths100-subs10"},
		{1000, 50, "paths1000-subs50"},
	} {
		b.Run(budget.name, func(b *testing.B) {
			opts := core.Options{Exec: symexec.Config{
				MaxPaths: budget.paths, MaxSubcases: budget.subs,
			}}
			b.ReportAllocs()
			var reports int
			for i := 0; i < b.N; i++ {
				res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), opts)
				reports = len(res.Reports)
			}
			b.ReportMetric(float64(reports), "reports")
		})
	}
}

// BenchmarkAblationBitTests measures the paper's future-work abstraction
// extension: preserving "x & CONST" as stable terms removes the §6.4
// bit-operation false positives without losing true bugs.
func BenchmarkAblationBitTests(b *testing.B) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 9, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 50,
	})
	for _, preserve := range []bool{false, true} {
		name := "havoc-bitops"
		if preserve {
			name = "preserve-bitops"
		}
		prog, err := lower.Program(c.Files, lower.Options{PreserveBitTests: preserve})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var fps, trueBugs int
			for i := 0; i < b.N; i++ {
				res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{})
				fps, trueBugs = 0, 0
				hit := map[string]bool{}
				for _, r := range res.Reports {
					hit[r.Fn] = true
				}
				for fn, info := range c.Truth {
					switch {
					case info.FPExpected && hit[fn]:
						fps++
					case info.Real && hit[fn]:
						trueBugs++
					}
				}
			}
			b.ReportMetric(float64(fps), "false-positives")
			b.ReportMetric(float64(trueBugs), "true-bugs")
		})
	}
}
