package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilObsIsInert(t *testing.T) {
	var o *Obs
	o.Count(MSolverQueries, 1) // must not panic
	sp := o.Start(PhaseExec, "f")
	sp.End()
	o.StartQuery("f").End()
	if o.QueryTiming() {
		t.Fatal("nil observer must not time queries")
	}
	if o.Registry() != nil {
		t.Fatal("nil observer has no registry")
	}
}

func TestRegistryCountersAndHistogram(t *testing.T) {
	r := NewRegistry()
	o := New(nil, r)
	o.Count(MPathsEnumerated, 7)
	o.Count(MPathsEnumerated, 3)
	if got := r.Counter(MPathsEnumerated); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, time.Millisecond} {
		r.Observe(PhaseExec, d)
	}
	s := r.Snapshot()
	ph := s.Phase(PhaseExec)
	if ph.Count != 3 {
		t.Fatalf("phase count = %d, want 3", ph.Count)
	}
	if ph.Max != time.Millisecond {
		t.Fatalf("phase max = %v, want 1ms", ph.Max)
	}
	if ph.Total != time.Millisecond+3*time.Microsecond {
		t.Fatalf("phase total = %v", ph.Total)
	}
	// p50 must land within a factor of √2 of 2µs (log-bucket estimate).
	if ph.P50 < time.Microsecond || ph.P50 > 4*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈2µs", ph.P50)
	}
	if ph.P95 < 512*time.Microsecond || ph.P95 > 2*time.Millisecond {
		t.Fatalf("p95 = %v, want ≈1ms", ph.P95)
	}
}

func TestRegistryConcurrentExactness(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Count(MSolverQueries, 1)
				r.Observe(PhaseSolver, time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(MSolverQueries); got != workers*perWorker {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Snapshot().Phase(PhaseSolver).Count; got != workers*perWorker {
		t.Fatalf("concurrent histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestQuantilesStayInObservedRange is the quantile property test: for
// random sample sets, min ≤ p50 ≤ p95 ≤ max, where min and max are the
// exact extremes of the samples. A child registry forwards every
// observation, so the parent's view must obey the same bounds over the
// union of both sample sets.
func TestQuantilesStayInObservedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		parent := NewRegistry()
		child := parent.Child()
		lo, hi := int64(math.MaxInt64), int64(0)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Log-uniform over 1ns..~1s, so samples spread across buckets.
			d := int64(1) << rng.Intn(30)
			d += rng.Int63n(d)
			lo, hi = min(lo, d), max(hi, d)
			if rng.Intn(2) == 0 {
				child.Observe(PhaseRun, time.Duration(d))
			} else {
				parent.Observe(PhaseRun, time.Duration(d))
			}
		}
		p := parent.Snapshot().Phase(PhaseRun)
		if time.Duration(lo) > p.P50 || p.P50 > p.P95 || p.P95 > p.Max || p.Max != time.Duration(hi) {
			t.Fatalf("iter %d: min=%v p50=%v p95=%v max=%v (want min ≤ p50 ≤ p95 ≤ max=%v)",
				iter, time.Duration(lo), p.P50, p.P95, p.Max, time.Duration(hi))
		}
		if got := parent.phases[PhaseRun].minNS(); got != lo {
			t.Fatalf("iter %d: tracked min = %d, want %d", iter, got, lo)
		}
	}
	// One sample: every quantile is that sample.
	r := NewRegistry()
	r.Observe(PhaseRun, 67*time.Microsecond)
	if p := r.Snapshot().Phase(PhaseRun); p.P50 != p.Max || p.P95 != p.Max {
		t.Fatalf("single 67µs sample: p50=%v p95=%v max=%v", p.P50, p.P95, p.Max)
	}
}

func TestSnapshotShapeIsStable(t *testing.T) {
	s := NewRegistry().Snapshot()
	if len(s.Counters) != int(numMetrics) || len(s.Phases) != NumPhases {
		t.Fatalf("snapshot shape %d/%d", len(s.Counters), len(s.Phases))
	}
	seen := map[string]bool{}
	for _, c := range s.Counters {
		if c.Name == "" || seen[c.Name] {
			t.Fatalf("bad counter name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestJSONLTracerSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	start := time.Unix(1738000000, 0)
	tr.Span(PhaseClassify, "", start, 3*time.Millisecond)
	tr.Span(PhaseExec, `we"ird`, start.Add(time.Second), 41*time.Microsecond)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	type span struct {
		Seq     int64  `json:"seq"`
		Phase   string `json:"phase"`
		Fn      string `json:"fn"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
	}
	var s0, s1 span
	if err := json.Unmarshal([]byte(lines[0]), &s0); err != nil {
		t.Fatalf("line 0: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &s1); err != nil {
		t.Fatalf("line 1: %v", err)
	}
	if s0.Seq != 1 || s1.Seq != 2 {
		t.Fatalf("seq = %d,%d", s0.Seq, s1.Seq)
	}
	if s0.Phase != "classify" || s1.Phase != "exec" {
		t.Fatalf("phases = %q,%q", s0.Phase, s1.Phase)
	}
	if s1.Fn != `we"ird` {
		t.Fatalf("fn roundtrip = %q", s1.Fn)
	}
	if s0.StartUS != start.UnixMicro() || s0.DurUS != 3000 {
		t.Fatalf("times = %d,%d", s0.StartUS, s0.DurUS)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, fmt.Errorf("disk full")
}

func TestJSONLTracerStopsAfterError(t *testing.T) {
	fw := &failWriter{}
	tr := NewJSONLTracer(fw)
	tr.Span(PhaseExec, "a", time.Now(), 1)
	tr.Span(PhaseExec, "b", time.Now(), 1)
	if tr.Err() == nil {
		t.Fatal("want retained error")
	}
	if fw.n != 1 {
		t.Fatalf("writes after error = %d, want 1", fw.n)
	}
}

// TestHookAllocations is the alloc guard for the hot-path hooks: the nil
// observer, the counters-only observer, and the counters+histogram span
// path must all be allocation-free. (The symexec-level guard lives in
// internal/core, where a whole function analysis is measured.)
func TestHookAllocations(t *testing.T) {
	var nilObs *Obs
	if n := testing.AllocsPerRun(200, func() {
		nilObs.Count(MSolverQueries, 1)
		sp := nilObs.Start(PhaseExec, "f")
		sp.End()
		nilObs.StartQuery("f").End()
	}); n != 0 {
		t.Fatalf("nil observer hooks allocate %v/op, want 0", n)
	}
	o := New(nil, NewRegistry())
	if n := testing.AllocsPerRun(200, func() {
		o.Count(MSolverQueries, 1)
		sp := o.Start(PhaseExec, "f")
		sp.End()
	}); n != 0 {
		t.Fatalf("registry observer hooks allocate %v/op, want 0", n)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Count(MSolverQueries, 5)
	stop, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	vars := get("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, vars)
	}
	if _, ok := decoded["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}
	var snap Snapshot
	if err := json.Unmarshal(decoded["rid_metrics"], &snap); err != nil {
		t.Fatalf("rid_metrics: %v", err)
	}
	if snap.Counter(MSolverQueries) != 5 {
		t.Fatalf("rid_metrics solver_queries = %d, want 5", snap.Counter(MSolverQueries))
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}
}

func TestSnapshotRenderers(t *testing.T) {
	r := NewRegistry()
	r.Count(MIPPConfirmed, 2)
	r.Observe(PhaseClassify, 5*time.Microsecond)
	s := r.Snapshot()

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "counter ipp_confirmed") ||
		!strings.Contains(text.String(), "phase classify") {
		t.Fatalf("text:\n%s", text.String())
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter(MIPPConfirmed) != 2 {
		t.Fatalf("json roundtrip counter = %d", back.Counter(MIPPConfirmed))
	}
}
