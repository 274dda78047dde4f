package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/solver"
)

// symexecPhase is the phase-histogram row every fixture point carries.
var symexecPhase = obs.PhaseStats{Phase: "symexec", Count: 12, Total: 5 * time.Millisecond,
	P50: 300 * time.Microsecond, P95: time.Millisecond, Max: 2 * time.Millisecond}

// sweepFixture is a synthetic 1/2/4-worker sweep: summed analyze time goes
// 200ms -> 100ms -> 100ms, so workers=2 is a perfect 2x (100% efficiency)
// and workers=4 stalls at the same 2x (50% efficiency).
func sweepFixture() *PerfSweep {
	point := func(paths int, analyze time.Duration) PerfPoint {
		return PerfPoint{
			Funcs:        50,
			Paths:        paths,
			ClassifyTime: time.Millisecond,
			AnalyzeTime:  analyze,
			Solver:       solver.Stats{Queries: 100, CacheHits: 40},
			Phases:       []obs.PhaseStats{symexecPhase},
			Mallocs:      uint64(90 * paths),
			AllocBytes:   uint64(9000 * paths),
		}
	}
	return &PerfSweep{Snapshots: []PerfSnapshot{
		{Workers: 1, Points: []PerfPoint{point(100, 60*time.Millisecond), point(400, 140*time.Millisecond)}},
		{Workers: 2, Points: []PerfPoint{point(100, 30*time.Millisecond), point(400, 70*time.Millisecond)}},
		{Workers: 4, Points: []PerfPoint{point(100, 40*time.Millisecond), point(400, 60*time.Millisecond)}},
	}}
}

func TestSweepSpeedup(t *testing.T) {
	s := sweepFixture()
	if sp, ok := s.Speedup(2); !ok || sp < 1.99 || sp > 2.01 {
		t.Errorf("workers=2 speedup = %v, %v; want 2.0", sp, ok)
	}
	if sp, ok := s.Speedup(4); !ok || sp < 1.99 || sp > 2.01 {
		t.Errorf("workers=4 speedup = %v, %v; want 2.0", sp, ok)
	}
	if sp, ok := s.Speedup(1); !ok || sp != 1 {
		t.Errorf("baseline speedup = %v, %v; want exactly 1", sp, ok)
	}
	if _, ok := s.Speedup(8); ok {
		t.Error("speedup for an absent setting must report !ok")
	}
	if _, ok := (&PerfSweep{}).Speedup(1); ok {
		t.Error("empty sweep must report !ok")
	}
}

func TestFormatPerfSweep(t *testing.T) {
	out := FormatPerfSweep(sweepFixture())
	for _, want := range []string{
		"workers", "efficiency",
		"1.00x", "100%", // baseline row
		"2.00x", // workers=2 and workers=4 both hit 2x...
		"50%",   // ...but workers=4 at half the efficiency
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep table missing %q:\n%s", want, out)
		}
	}
	// workers=2 at perfect scaling: the efficiency column shows 100% twice.
	if strings.Count(out, "100%") != 2 {
		t.Errorf("want two 100%% efficiency rows (workers 1 and 2):\n%s", out)
	}
}

func TestPerfSweepRoundTrip(t *testing.T) {
	s := sweepFixture()
	var buf bytes.Buffer
	if err := WritePerfSweep(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPerfSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != 3 || got.Snapshots[2].Workers != 4 {
		t.Fatalf("round trip: %+v", got)
	}
	if p := got.Snapshots[1].Points[1]; p.Paths != 400 || p.AnalyzeTime != 70*time.Millisecond {
		t.Errorf("point fields lost: %+v", p)
	}
	if _, err := ReadPerfSweep(strings.NewReader(`{"snapshots":[]}`)); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := ReadPerfSweep(strings.NewReader(`garbage`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestPerfSnapshotRoundTrip: a single-setting run (what `ridbench -perf`
// writes without -workers) keeps every per-point field through -perf-json,
// solver counters and the phase histogram included.
func TestPerfSnapshotRoundTrip(t *testing.T) {
	s := &PerfSweep{Snapshots: sweepFixture().Snapshots[2:]}
	var buf bytes.Buffer
	if err := WritePerfSweep(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPerfSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Snapshots) != 1 || got.Snapshots[0].Workers != 4 || len(got.Snapshots[0].Points) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	p := got.Snapshots[0].Points[1]
	if p.Funcs != 50 || p.Paths != 400 || p.ClassifyTime != time.Millisecond ||
		p.AnalyzeTime != 60*time.Millisecond || p.Solver.Queries != 100 || p.Solver.CacheHits != 40 {
		t.Errorf("point fields lost: %+v", p)
	}
	if len(p.Phases) != 1 || p.Phases[0] != symexecPhase {
		t.Errorf("phase histogram lost: %+v", p.Phases)
	}
}
