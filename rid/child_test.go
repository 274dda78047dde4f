package rid

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/promtext"
)

// TestNewRequestChildExactDeltas: concurrent request-scoped analyzers
// each see exactly their own run's counters, while the base analyzer's
// registry aggregates all of them.
func TestNewRequestChildExactDeltas(t *testing.T) {
	base := New(LinuxDPMSpecs())

	const reqs = 8
	var wg sync.WaitGroup
	results := make([]*Result, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := base.NewRequestChild()
			if err := a.AddSource("drv.c", buggy); err != nil {
				t.Error(err)
				return
			}
			res, err := a.RunContext(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	var totalFuncs int64
	for i, res := range results {
		if res == nil {
			t.Fatalf("request %d did not finish", i)
		}
		// The corpus is one function; an exact per-request view reads 1
		// no matter how many siblings ran concurrently.
		if n := res.MetricValue("funcs_analyzed"); n != 1 {
			t.Errorf("request %d: funcs_analyzed = %d, want 1 (child registry must not see siblings)", i, n)
		}
		totalFuncs += res.MetricValue("funcs_analyzed")
		// And the phase breakdown is per-request too.
		var exec int64
		for _, p := range res.PhaseTimings() {
			if p.Phase == "exec" {
				exec = p.Count
			}
		}
		if exec != 1 {
			t.Errorf("request %d: exec phase count = %d, want 1", i, exec)
		}
	}
	// The parent aggregates every child: the live process-wide counter is
	// the sum of the per-request deltas.
	if live := base.LiveMetricValue("funcs_analyzed"); live != totalFuncs {
		t.Errorf("parent funcs_analyzed = %d, want %d (sum of request deltas)", live, totalFuncs)
	}
}

// TestAnalyzerWritePrometheus: the facade's exposition is well-formed
// and carries the aggregated registry counters.
func TestAnalyzerWritePrometheus(t *testing.T) {
	a := New(LinuxDPMSpecs())
	req := a.NewRequestChild()
	if err := req.AddSource("drv.c", buggy); err != nil {
		t.Fatal(err)
	}
	if _, err := req.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := a.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("facade exposition rejected by parser: %v", err)
	}
	if v, ok := fams.Value("rid_funcs_analyzed_total", nil); !ok || v != 1 {
		t.Errorf("rid_funcs_analyzed_total = %v, %t; want 1 (child run rolled up)", v, ok)
	}
	if fams["rid_phase_duration_seconds"] == nil {
		t.Error("phase histogram family missing from facade exposition")
	}
}

// TestLiveMetricValueUnknown: unknown names read as zero, not panic.
func TestLiveMetricValueUnknown(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if v := a.LiveMetricValue("no_such_counter"); v != 0 {
		t.Errorf("unknown counter = %d, want 0", v)
	}
}

// TestResidentTierFollowsCacheDir: request children share the analyzer's
// decoded store entries, so a repeat replays from memory; switching the
// analyzer to another CacheDir starts empty, so its first run misses as
// a disk-only run over that directory would.
func TestResidentTierFollowsCacheDir(t *testing.T) {
	run := func(a *Analyzer) (hits, misses, resident int64) {
		t.Helper()
		if err := a.AddSource("drv.c", buggy); err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.MetricValue("store_hits"), res.MetricValue("store_misses"), res.MetricValue("store_resident_hits")
	}
	base := New(LinuxDPMSpecs())
	base.SetOptions(Options{CacheDir: t.TempDir()})
	if h, m, r := run(base.NewRequestChild()); h != 0 || m != 1 || r != 0 {
		t.Fatalf("cold child: hits/misses/resident = %d/%d/%d, want 0/1/0", h, m, r)
	}
	if h, m, r := run(base.NewRequestChild()); h != 1 || m != 0 || r != 1 {
		t.Fatalf("warm child: hits/misses/resident = %d/%d/%d, want 1/0/1", h, m, r)
	}
	base.SetOptions(Options{CacheDir: t.TempDir()})
	if h, m, r := run(base.NewRequestChild()); h != 0 || m != 1 || r != 0 {
		t.Fatalf("child over a new directory: hits/misses/resident = %d/%d/%d, want 0/1/0", h, m, r)
	}
}
