package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/promtext"
)

// TestChildRollup: counts and observations against a child land in the
// child AND every ancestor, and the child's own reading is an exact
// per-request delta (starts at zero, unaffected by sibling activity).
func TestChildRollup(t *testing.T) {
	root := NewRegistry()
	root.Count(MSolverQueries, 10) // pre-existing process history

	a := root.Child()
	b := root.Child()
	a.Count(MSolverQueries, 3)
	a.Observe(PhaseExec, 2*time.Millisecond)
	b.Count(MSolverQueries, 4)

	if got := a.Counter(MSolverQueries); got != 3 {
		t.Fatalf("child a counter = %d, want exact delta 3", got)
	}
	if got := b.Counter(MSolverQueries); got != 4 {
		t.Fatalf("child b counter = %d, want exact delta 4", got)
	}
	if got := root.Counter(MSolverQueries); got != 17 {
		t.Fatalf("root counter = %d, want 10+3+4=17", got)
	}
	if got := root.Snapshot().Phase(PhaseExec).Count; got != 1 {
		t.Fatalf("root exec span count = %d, want rollup of 1", got)
	}

	// Grandchild: rollup is transitive.
	g := a.Child()
	g.Count(MIPPConfirmed, 1)
	if a.Counter(MIPPConfirmed) != 1 || root.Counter(MIPPConfirmed) != 1 {
		t.Fatalf("grandchild rollup: a=%d root=%d, want 1/1",
			a.Counter(MIPPConfirmed), root.Counter(MIPPConfirmed))
	}
	if g.Counter(MSolverQueries) != 0 {
		t.Fatal("fresh grandchild inherited ancestor counts")
	}
}

// TestChildRollupConcurrent hammers many children concurrently and
// checks the parent total is exact — the serve-path invariant that
// per-request registries never lose process-level events.
func TestChildRollupConcurrent(t *testing.T) {
	root := NewRegistry()
	const children, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < children; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := root.Child()
			for j := 0; j < per; j++ {
				c.Count(MTasksExecuted, 1)
				c.Observe(PhaseQueue, time.Microsecond)
			}
			if c.Counter(MTasksExecuted) != per {
				t.Errorf("child delta = %d, want %d", c.Counter(MTasksExecuted), per)
			}
		}()
	}
	wg.Wait()
	if got := root.Counter(MTasksExecuted); got != children*per {
		t.Fatalf("root total = %d, want %d", got, children*per)
	}
	if got := root.Snapshot().Phase(PhaseQueue).Count; got != children*per {
		t.Fatalf("root queue spans = %d, want %d", got, children*per)
	}
}

// TestObsWith: the derived observer swaps the tracer, keeps registry and
// query timing, and stays nil-safe.
func TestObsWith(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	base := New(nil, reg)
	base.EnableQueryTiming()

	tr := NewJSONLTracer(&buf)
	derived := base.With(tr)
	sp := derived.Start(PhaseExec, "fn_a")
	sp.End()
	if derived.Registry() != reg {
		t.Fatal("With dropped the registry")
	}
	if !derived.QueryTiming() {
		t.Fatal("With dropped query timing")
	}
	if !strings.Contains(buf.String(), `"phase":"exec"`) {
		t.Fatalf("derived tracer saw no span: %q", buf.String())
	}
	if reg.Snapshot().Phase(PhaseExec).Count != 1 {
		t.Fatal("derived span did not land in registry")
	}

	if base.With(nil).Registry() != reg {
		t.Fatal("With(nil) should keep registry, drop tracer only")
	}
	var nilObs *Obs
	if nilObs.With(nil) != nil {
		t.Fatal("nil.With(nil) should stay nil")
	}
	if got := nilObs.With(tr); got == nil || got.Registry() != nil {
		t.Fatal("nil.With(tracer) should yield tracer-only observer")
	}
}

// TestWritePrometheusRoundTrip renders a live registry and feeds the
// text back through the validating parser: every counter family present
// with the right value, phase histograms cumulative with +Inf == _count.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Count(MSolverQueries, 41)
	r.Count(MIPPConfirmed, 2)
	r.Observe(PhaseExec, 3*time.Millisecond)
	r.Observe(PhaseExec, 70*time.Microsecond)
	r.Observe(PhaseSolver, 900*time.Nanosecond)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition rejected by own parser: %v\n%s", err, buf.String())
	}

	for m := Metric(0); m < numMetrics; m++ {
		name := "rid_" + m.Name() + "_total"
		v, ok := fams.Value(name, nil)
		if !ok {
			t.Fatalf("family %s missing", name)
		}
		if int64(v) != r.Counter(m) {
			t.Fatalf("%s = %v, registry has %d", name, v, r.Counter(m))
		}
		if fams[name].Help == "" {
			t.Errorf("family %s has an empty HELP line", name)
		}
	}
	if fams["rid_solver_queries_total"].Type != "counter" {
		t.Fatalf("counter family typed %q", fams["rid_solver_queries_total"].Type)
	}
	if fams["rid_phase_duration_seconds"].Type != "histogram" {
		t.Fatal("phase family not a histogram")
	}
	for p := Phase(0); p < numPhases; p++ {
		lbl := map[string]string{"phase": p.String()}
		cnt, ok := fams.Value("rid_phase_duration_seconds_count", lbl)
		if !ok {
			t.Fatalf("phase %s missing _count", p)
		}
		if int64(cnt) != r.Snapshot().Phase(p).Count {
			t.Fatalf("phase %s count = %v, want %d", p, cnt, r.Snapshot().Phase(p).Count)
		}
	}
	// A 3ms observation must be inside the le=0.004194304 (2^22 ns)
	// bucket and outside le=0.002097152 (2^21 ns).
	v22, _ := fams.Value("rid_phase_duration_seconds_bucket", map[string]string{"phase": "exec", "le": "0.004194304"})
	v21, _ := fams.Value("rid_phase_duration_seconds_bucket", map[string]string{"phase": "exec", "le": "0.002097152"})
	if v22-v21 != 1 {
		t.Fatalf("3ms span not in the 2^22ns bucket: le22=%v le21=%v\n%s", v22, v21, buf.String())
	}
}

// le label values are formatted by promtext.formatValue ('g', precision
// -1) — pin one so the bucket-lookup idiom above can't silently drift.
func TestPromBucketLabelFormat(t *testing.T) {
	var buf bytes.Buffer
	var h Histogram
	h.Observe(3 * time.Millisecond)
	pw := promtext.NewWriter(&buf)
	pw.Family("x_seconds", "histogram", "t")
	h.AppendProm(pw, "x_seconds")
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `le="0.004194304"`) {
		t.Fatalf("bucket label format drifted:\n%s", buf.String())
	}
}

// TestHistogramStandalone: the exported wrapper counts, sums, and
// renders a parseable sub-series with labels.
func TestHistogramStandalone(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)

	var buf bytes.Buffer
	pw := promtext.NewWriter(&buf)
	pw.Family("rid_serve_queue_wait_seconds", "histogram", "time from admit to start")
	h.AppendProm(pw, "rid_serve_queue_wait_seconds", promtext.Label{Name: "route", Value: "analyze"})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	v, ok := fams.Value("rid_serve_queue_wait_seconds_count", map[string]string{"route": "analyze"})
	if !ok || v != 2 {
		t.Fatalf("count = %v, %t", v, ok)
	}
	s, _ := fams.Value("rid_serve_queue_wait_seconds_sum", map[string]string{"route": "analyze"})
	if s < 0.029 || s > 0.031 {
		t.Fatalf("sum = %v, want ≈0.03", s)
	}
}

// TestChildHooksAllocFree: the request-scoped rollup must not buy its
// exactness with allocation — Count/Observe/Span against a child are as
// free as against the root. Creating the child itself is one small
// allocation per request, which is fine; the hooks on the hot path are
// not.
func TestChildHooksAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	root := NewRegistry()
	child := root.Child()
	o := New(nil, child)
	if got := testing.AllocsPerRun(200, func() {
		child.Count(MSolverQueries, 1)
		child.Observe(PhaseSolver, time.Microsecond)
		sp := o.Start(PhaseExec, "fn")
		sp.End()
	}); got != 0 {
		t.Fatalf("child hooks allocate %v/op, want 0", got)
	}
}
