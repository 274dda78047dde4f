package rid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// traceLine matches exactly the documented JSONL schema, including key
// order: {"seq":N,"phase":"...","fn":"...","start_us":N,"dur_us":N}.
// Consumers are told they can parse this with line-oriented tools, so the
// key order and the absence of extra fields are part of the contract.
var traceLine = regexp.MustCompile(
	`^\{"seq":(\d+),"phase":"(run|callgraph|classify|enumerate|exec|ipp|solver|replay)","fn":"([^"]*)","start_us":\d+,"dur_us":\d+\}$`)

func runTraced(t *testing.T, src string) (string, *Result) {
	t.Helper()
	var buf bytes.Buffer
	a := New(LinuxDPMSpecs())
	if err := a.AddSource("drv.c", src); err != nil {
		t.Fatal(err)
	}
	a.SetOptions(Options{Workers: 1, TraceWriter: &buf})
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), res
}

// TestTraceGoldenShape pins the JSONL trace format: every line matches the
// schema, seq numbers are 1..N with no gaps, the first completed span is
// the call-graph build and the last is the whole-run span, and every
// pipeline phase shows up for a function that is actually analyzed.
func TestTraceGoldenShape(t *testing.T) {
	out, _ := runTraced(t, buggy)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("trace too short (%d lines):\n%s", len(lines), out)
	}
	seen := map[string]bool{}
	for i, ln := range lines {
		m := traceLine.FindStringSubmatch(ln)
		if m == nil {
			t.Fatalf("line %d does not match the trace schema: %q", i+1, ln)
		}
		if m[1] != fmt.Sprint(i+1) {
			t.Fatalf("line %d has seq %s; want %d (strictly increasing, no gaps)", i+1, m[1], i+1)
		}
		seen[m[2]] = true
	}
	for _, phase := range []string{"run", "callgraph", "classify", "enumerate", "exec", "ipp", "solver"} {
		if !seen[phase] {
			t.Errorf("phase %q missing from trace:\n%s", phase, out)
		}
	}
	first := traceLine.FindStringSubmatch(lines[0])
	last := traceLine.FindStringSubmatch(lines[len(lines)-1])
	if first[2] != "callgraph" {
		t.Errorf("first completed span is %q, want callgraph", first[2])
	}
	if last[2] != "run" || last[3] != "" {
		t.Errorf("last completed span is %q fn=%q, want the run span", last[2], last[3])
	}
}

// TestTraceDeterministicAtOneWorker checks that the (phase, fn) event
// sequence — everything except wall-clock timings — is identical across
// runs at Workers=1, so traces can be diffed.
func TestTraceDeterministicAtOneWorker(t *testing.T) {
	shape := func(out string) []string {
		var evs []string
		for _, ln := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			m := traceLine.FindStringSubmatch(ln)
			if m == nil {
				t.Fatalf("bad trace line %q", ln)
			}
			evs = append(evs, m[2]+":"+m[3])
		}
		return evs
	}
	out1, _ := runTraced(t, buggy)
	out2, _ := runTraced(t, buggy)
	a, b := shape(out1), shape(out2)
	if len(a) != len(b) {
		t.Fatalf("trace length differs across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace event %d differs across runs: %q vs %q", i, a[i], b[i])
		}
	}
}

// metricNames is the complete counter set in its fixed output order; the
// text and JSON renderers both emit exactly these, in exactly this order.
var metricNames = []string{
	"funcs_analyzed", "paths_enumerated", "paths_truncated",
	"subcases_forked", "summary_entries", "solver_queries",
	"solver_cache_hits", "solver_sat", "solver_unsat", "solver_gave_up",
	"ipp_candidates", "ipp_confirmed",
	"replay_confirmed", "replay_diverged", "replay_unreplayed",
	"store_hits", "store_misses", "store_evictions",
	"tasks_executed", "tasks_stolen",
	"remote_hits", "remote_misses", "remote_errors",
	"remote_integrity_errors", "remote_puts",
	"store_resident_hits",
	"frontend_files_reused", "frontend_files_lowered",
	"funcs_lowered",
}

var phaseNames = []string{"run", "classify", "enumerate", "exec", "ipp", "solver", "replay", "cacheio", "steal", "queue", "callgraph"}

// TestMetricsGoldenText pins the text metrics layout: one counter line per
// metric in fixed order, then one phase line per phase in fixed order,
// then one utilization line per scheduler worker — exactly `worker 0` at
// Workers=1 — with coherent values for the known single-bug input.
func TestMetricsGoldenText(t *testing.T) {
	_, res := runTraced(t, buggy)
	var buf bytes.Buffer
	if err := res.WriteMetrics(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := len(metricNames) + len(phaseNames) + 1; len(lines) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), want, buf.String())
	}
	vals := map[string]int64{}
	counterLine := regexp.MustCompile(`^counter ([a-z_]+) +(-?\d+)$`)
	for i, name := range metricNames {
		m := counterLine.FindStringSubmatch(lines[i])
		if m == nil || m[1] != name {
			t.Fatalf("counter line %d = %q, want counter %s", i, lines[i], name)
		}
		var v int64
		fmt.Sscan(m[2], &v)
		vals[name] = v
	}
	phaseLine := regexp.MustCompile(`^phase ([a-z]+) +count=\d+ total=\S+ p50=\S+ p95=\S+ max=\S+$`)
	for i, name := range phaseNames {
		ln := lines[len(metricNames)+i]
		m := phaseLine.FindStringSubmatch(ln)
		if m == nil || m[1] != name {
			t.Fatalf("phase line %d = %q, want phase %s", i, ln, name)
		}
	}
	workerLine := regexp.MustCompile(`^worker 0 +tasks=(\d+) busy=\S+$`)
	m := workerLine.FindStringSubmatch(lines[len(lines)-1])
	if m == nil {
		t.Fatalf("last line = %q, want the single worker 0 line", lines[len(lines)-1])
	}
	// One task per analyzed function: drv_op is the only one.
	if m[1] != fmt.Sprint(vals["tasks_executed"]) || vals["tasks_executed"] != 1 || vals["tasks_executed"] != vals["funcs_analyzed"] {
		t.Errorf("worker 0 tasks=%s, tasks_executed=%d, funcs_analyzed=%d; want tasks=tasks_executed=funcs_analyzed=1",
			m[1], vals["tasks_executed"], vals["funcs_analyzed"])
	}
	if vals["ipp_confirmed"] != 1 {
		t.Errorf("ipp_confirmed = %d, want 1 (one bug in input)", vals["ipp_confirmed"])
	}
	if vals["funcs_analyzed"] < 1 || vals["paths_enumerated"] < 2 {
		t.Errorf("pipeline counters implausible: %v", vals)
	}
	// Every query is answered SAT or UNSAT, cache hits included; the
	// hits overlay that partition.
	if q := vals["solver_queries"]; q != vals["solver_sat"]+vals["solver_unsat"] || vals["solver_cache_hits"] > q {
		t.Errorf("query accounting broken: %v", vals)
	}
}

// TestMetricsGoldenJSON pins the JSON metrics shape: a single object with
// "counters" and "phases" arrays carrying the full fixed-name sets.
func TestMetricsGoldenJSON(t *testing.T) {
	_, res := runTraced(t, buggy)
	var buf bytes.Buffer
	if err := res.WriteMetrics(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Phases []struct {
			Phase string `json:"phase"`
			Count int64  `json:"count"`
			Total int64  `json:"total_ns"`
			P50   int64  `json:"p50_ns"`
			P95   int64  `json:"p95_ns"`
			Max   int64  `json:"max_ns"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(snap.Counters) != len(metricNames) {
		t.Fatalf("got %d counters, want %d", len(snap.Counters), len(metricNames))
	}
	for i, name := range metricNames {
		if snap.Counters[i].Name != name {
			t.Errorf("counter %d = %q, want %q", i, snap.Counters[i].Name, name)
		}
	}
	if len(snap.Phases) != len(phaseNames) {
		t.Fatalf("got %d phases, want %d", len(snap.Phases), len(phaseNames))
	}
	for i, name := range phaseNames {
		if snap.Phases[i].Phase != name {
			t.Errorf("phase %d = %q, want %q", i, snap.Phases[i].Phase, name)
		}
		// Quantiles are log2-bucket midpoints clamped to the observed
		// range, so they never exceed max and must be monotone; total
		// bounds max exactly.
		if p := snap.Phases[i]; p.Count > 0 && (p.Total < p.Max || p.P50 > p.P95 || p.P95 > p.Max) {
			t.Errorf("phase %s has incoherent stats: %+v", name, p)
		}
	}
}
