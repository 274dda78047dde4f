package core

import (
	"context"
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/lower"
	"repro/internal/spec"
)

// TestAnalyzeAllocs bounds what Steps I–III cost per analyzed function:
// classification, path enumeration, symbolic execution and pairwise
// checking, with every body lowered beforehand so that the frontend does
// not count. Scratch is borrowed and returned within each call and only
// results are allocated, so the count is a property of the code, gated
// without a clock. Each run builds its expressions afresh in a table of
// its own; the table's slabs keep that within the bound.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const limit = 29 // 25.3 measured, plus 15%
	m := kernelgen.PaperMix()
	const scale = 8
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 400,
		Mix: kernelgen.Mix{
			CorrectBalanced: m.CorrectBalanced * scale, CorrectErrHandled: m.CorrectErrHandled * scale,
			CorrectWrapperUse: m.CorrectWrapperUse * scale, CorrectHeld: m.CorrectHeld * scale,
			BugGetErrReturn: m.BugGetErrReturn * scale, BugWrapperErrPath: m.BugWrapperErrPath * scale,
			BugWrapperMisuse: m.BugWrapperMisuse * scale, BugDoublePut: m.BugDoublePut * scale,
			BugIRQStyle: m.BugIRQStyle * scale, BugAsymmetricErr: m.BugAsymmetricErr * scale,
			BugLoopErrPath: m.BugLoopErrPath * scale, CorrectLoop: m.CorrectLoop * scale,
			CorrectSwitch: m.CorrectSwitch * scale, BugDeepWrapper: m.BugDeepWrapper * scale,
			FPBitmask: m.FPBitmask * scale,
		},
		SimpleHelpers: 10 * scale, ComplexHelpers: 8 * scale, OtherFuncs: 200 * scale,
	})
	prog, err := lower.Program(c.Files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		f.Body()
	}
	specs := spec.LinuxDPM()
	var res *Result
	run := func() { res = Analyze(context.Background(), prog, specs, Options{Workers: 1}) }
	run() // fill the pools
	avg := testing.AllocsPerRun(3, run) / float64(res.Stats.FuncsAnalyzed)
	t.Logf("%.1f allocations per analyzed function over %d functions", avg, res.Stats.FuncsAnalyzed)
	if avg > limit {
		t.Errorf("%.1f allocations per analyzed function, want at most %d", avg, limit)
	}
}
