package serve

import (
	"runtime"
	"testing"

	"repro/internal/corpus/kernelgen"
)

// heapInUse is the heap still reachable after two collections (the
// second empties the sync.Pool victim caches the first one filled).
func heapInUse() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestServeHeapFlatAcrossRequests: the daemon keeps nothing of the
// requests it has answered. Each request analyzes a distinct scale-1 tree
// with its own expression table, so the heap in use after 145 such
// requests is within 1.2× of the heap after 20.
func TestServeHeapFlatAcrossRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("145 analyses")
	}
	_, ts := newTestServer(t, Config{})
	m := kernelgen.PaperMix()
	var after20 uint64
	for i := int64(0); i < 145; i++ {
		c := kernelgen.Generate(kernelgen.Config{
			Seed: 500 + i, Mix: m,
			SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 200,
		})
		resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: c.Files, NoCache: true})
		if resp.StatusCode != 200 || ar.FuncsTotal == 0 {
			t.Fatalf("request %d: status %d, %d functions", i, resp.StatusCode, ar.FuncsTotal)
		}
		if i == 19 {
			after20 = heapInUse()
		}
	}
	after145 := heapInUse()
	t.Logf("heap in use after 20 requests %.1f MiB, after 145 %.1f MiB", float64(after20)/(1<<20), float64(after145)/(1<<20))
	if float64(after145) > 1.2*float64(after20) {
		t.Errorf("heap in use grew from %.1f MiB after 20 requests to %.1f MiB after 145, want at most 1.2×",
			float64(after20)/(1<<20), float64(after145)/(1<<20))
	}
}
