package rid

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/corpus/kernelgen"
)

// scaledCorpus is the paper mix times scale, with helper and utility mass
// growing with it (the §6.5 scaling shape).
func scaledCorpus(seed int64, scale int) *kernelgen.Corpus {
	m := kernelgen.PaperMix()
	return kernelgen.Generate(kernelgen.Config{
		Seed: seed,
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
}

// liveHeap is the heap still reachable after two collections (the second
// empties the sync.Pool victim caches the first one filled).
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLiveHeapFlatAcrossRuns: a process that scans many distinct trees
// keeps nothing of the runs it has finished. The symbolic expressions of a
// run live in the run's own table, so the live heap after 24 distinct
// kernelgen scale-8 scans is within 1.2× of the live heap after 4.
func TestLiveHeapFlatAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("24 scale-8 scans")
	}
	scan := func(seed int64) {
		a := New(LinuxDPMSpecs())
		a.SetOptions(Options{Workers: 2})
		if err := a.AddSources(scaledCorpus(seed, 8).Files); err != nil {
			t.Fatal(err)
		}
		res, err := a.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Bugs) == 0 {
			t.Fatalf("seed %d: no bugs reported", seed)
		}
	}
	var after4 uint64
	for i := int64(0); i < 24; i++ {
		scan(900 + i)
		if i == 3 {
			after4 = liveHeap()
		}
	}
	after24 := liveHeap()
	t.Logf("live heap after 4 scans %.1f MiB, after 24 %.1f MiB", float64(after4)/(1<<20), float64(after24)/(1<<20))
	if float64(after24) > 1.2*float64(after4) {
		t.Errorf("live heap grew from %.1f MiB after 4 scans to %.1f MiB after 24, want at most 1.2×",
			float64(after4)/(1<<20), float64(after24)/(1<<20))
	}
}
