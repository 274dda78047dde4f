package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// ---------------------------------------------------------------------------
// §6.5 worker sweep: the scaling series at several worker counts, with
// scaling efficiency relative to the first (lowest) setting

// PerfSnapshot is the §6.5 scaling series at one worker setting.
// Durations are nanoseconds on the wire.
type PerfSnapshot struct {
	Workers int         `json:"workers"`
	Points  []PerfPoint `json:"points"`
}

// PerfSweep is the result of `ridbench -perf` and the one -perf-json
// format: one snapshot per -workers setting, in the order requested.
type PerfSweep struct {
	Snapshots []PerfSnapshot `json:"snapshots"`
}

// RunPerfSweep measures the §6.5 scaling series once per worker setting.
// The same corpora are analyzed at every setting (Perf regenerates them
// deterministically from the scale seed), so analyze-time ratios between
// settings are pure scheduling effects.
func RunPerfSweep(ctx context.Context, scales, workerList []int) (*PerfSweep, error) {
	sweep := &PerfSweep{}
	for _, w := range workerList {
		pts, err := Perf(ctx, scales, w)
		if err != nil {
			return nil, err
		}
		sweep.Snapshots = append(sweep.Snapshots, PerfSnapshot{Workers: w, Points: pts})
	}
	return sweep, nil
}

// analyzeTotal sums the analyze wall-clock across a snapshot's points.
func analyzeTotal(s PerfSnapshot) time.Duration {
	var d time.Duration
	for _, p := range s.Points {
		d += p.AnalyzeTime
	}
	return d
}

// pathsTotal sums the enumerated paths across a snapshot's points.
func pathsTotal(s PerfSnapshot) int {
	n := 0
	for _, p := range s.Points {
		n += p.Paths
	}
	return n
}

// Speedup returns the analyze-time speedup of the setting with the given
// worker count relative to the sweep's first setting (the baseline, by
// convention workers=1). ok is false when the setting is absent or a
// timing is zero.
func (s *PerfSweep) Speedup(workers int) (float64, bool) {
	if len(s.Snapshots) == 0 {
		return 0, false
	}
	base := analyzeTotal(s.Snapshots[0])
	for _, snap := range s.Snapshots {
		if snap.Workers == workers {
			at := analyzeTotal(snap)
			if base <= 0 || at <= 0 {
				return 0, false
			}
			return float64(base) / float64(at), true
		}
	}
	return 0, false
}

// FormatPerfSweep renders the sweep as one row per worker setting:
// analyze wall-clock (summed over the scaling series), throughput in
// paths/sec, speedup over the first setting, and scaling efficiency
// (speedup divided by the worker ratio — 100% is perfect linear scaling).
func FormatPerfSweep(s *PerfSweep) string {
	var b strings.Builder
	b.WriteString("§6.5: worker sweep (analyze summed over the scaling series; efficiency = speedup / workers)\n")
	fmt.Fprintf(&b, "%8s %14s %12s %9s %11s\n", "workers", "analyze", "paths/sec", "speedup", "efficiency")
	if len(s.Snapshots) == 0 {
		return b.String()
	}
	base := s.Snapshots[0]
	baseTime := analyzeTotal(base)
	for _, snap := range s.Snapshots {
		at := analyzeTotal(snap)
		pps := "-"
		if at > 0 {
			pps = fmt.Sprintf("%.0f", float64(pathsTotal(snap))/at.Seconds())
		}
		speedup, eff := "-", "-"
		if baseTime > 0 && at > 0 && base.Workers > 0 {
			sp := float64(baseTime) / float64(at)
			speedup = fmt.Sprintf("%.2fx", sp)
			eff = fmt.Sprintf("%.0f%%", sp/(float64(snap.Workers)/float64(base.Workers))*100)
		}
		fmt.Fprintf(&b, "%8d %14s %12s %9s %11s\n",
			snap.Workers, at.Round(time.Microsecond), pps, speedup, eff)
	}
	return b.String()
}

// WritePerfSweep serializes a sweep (the BENCH_section65.json format).
func WritePerfSweep(w io.Writer, s *PerfSweep) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadPerfSweep loads a serialized sweep.
func ReadPerfSweep(r io.Reader) (*PerfSweep, error) {
	var s PerfSweep
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("perf sweep: %w", err)
	}
	if len(s.Snapshots) == 0 {
		return nil, fmt.Errorf("perf sweep: no snapshots")
	}
	return &s, nil
}
