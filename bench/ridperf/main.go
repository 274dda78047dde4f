// Command ridperf is the repository's benchmark: two batch scans through
// the rid package and two request streams against a `rid serve` daemon,
// each checked against the generator's ground truth, with end-to-end
// metrics and, in a separate -trace run, per-layer metrics timed from
// outside the program. bench/README.md describes the workloads and
// metrics; bench/run.sh builds the binaries and runs it:
//
//	bash bench/run.sh -seed 317 [-workload W] [-trace] [-repeat N] [-json out.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics, or per-layer
// ones with -trace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// options are one invocation's settings.
type options struct {
	sched  schedule // the workload's full schedule, or quickSchedule
	trace  bool
	ridBin string
	work   string
}

// repeatStride separates the op seeds of -repeat runs.
const repeatStride = 100000

func main() {
	os.Exit(ridperf(os.Args[1:], os.Stdout, os.Stderr))
}

func ridperf(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ridperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (batch_kernel, batch_wide, serve_fresh, serve_edit); empty runs all four")
		seed    = fs.Int64("seed", 317, "input seed: op i of a run scans the tree generated from seed+i")
		seconds = fs.Int("seconds", runSeconds, "run length; the op counts are fixed for this one value, so no other is accepted")
		trace   = fs.Bool("trace", false, "measure per-layer metrics instead of end-to-end ones (also accepts -trace 0|1)")
		repeat  = fs.Int("repeat", 1, "run each workload this many times, with fresh processes and seeds, and print each metric's median and IQR")
		jsonOut = fs.String("json", "", "also write every run's metrics to this file")
		quick   = fs.Bool("quick", false, "smoke mode: one round of a few ops per workload")
		ridBin  = fs.String("rid", "", "rid binary for the serve workloads (bench/run.sh builds it)")
		work    = fs.String("work", filepath.Join(".bench_build", "ridperf"), "scratch directory for daemon stores, access logs and span files")
		child   = fs.Bool("child", false, "internal: run one batch round as the process under test")
		first   = fs.Int("first", 0, "internal: index of the child's first op")
		ops     = fs.Int("ops", 0, "internal: the child's timed ops")
		warmups = fs.Int("warmups", 0, "internal: the child's warm-up ops")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ridperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var ws []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(stderr, "ridperf: unknown workload %q\n", *name)
		return 2
	}
	if *child {
		if err := runChild(ws[0], *seed, *first, *warmups, *ops, *trace); err != nil {
			fmt.Fprintf(stderr, "ridperf child: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds != runSeconds {
		fmt.Fprintf(stderr, "ridperf: -seconds is %d; the op counts are fixed for %d-second runs\n", *seconds, runSeconds)
		return 2
	}
	if *repeat < 1 {
		fmt.Fprintln(stderr, "ridperf: -repeat must be positive")
		return 2
	}

	var all []result
	correct := true
	for _, w := range ws {
		o := options{sched: w.full, trace: *trace, ridBin: *ridBin, work: *work}
		if *quick {
			o.sched = quickSchedule
		}
		var runs []result
		for k := 0; k < *repeat; k++ {
			res, err := runWorkload(o, w, *seed+int64(k)*repeatStride)
			if err != nil {
				fmt.Fprintf(stderr, "ridperf: %s: %v\n", w.name, err)
				return 1
			}
			runs = append(runs, res)
			correct = correct && res.Failed == 0
		}
		all = append(all, runs...)
		if *repeat > 1 {
			printSpread(stdout, runs, o.trace)
		} else {
			printResult(stdout, runs[0], o.trace)
		}
		printLine(stdout, runs, o.trace)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "ridperf: %v\n", err)
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// joinTraceValue rewrites the "-trace 0" and "-trace 1" forms to
// "-trace=0" and "-trace=1"; flag reads a bare boolean flag's next
// argument as a positional one.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// runWorkload runs one workload in o.sched.rounds fresh processes. A serve
// round's daemon serves half a batch round's share of the run: its tail
// latency varies more from one process to the next, and more processes
// average that out.
func runWorkload(o options, w workload, seed int64) (result, error) {
	r := &run{raw: newTally(), cal: newTally()}
	if w.serve {
		if o.ridBin == "" {
			return result{}, fmt.Errorf("serve workloads need -rid (bench/run.sh builds it)")
		}
		if err := runServe(o, w, seed, r); err != nil {
			return result{}, err
		}
	} else {
		for round := 0; round < o.sched.rounds; round++ {
			rt, err := batchRound(o, w, seed, round*o.sched.ops)
			if err != nil {
				return result{}, err
			}
			r.addRound(rt)
		}
	}
	if o.trace {
		path := filepath.Join(o.work, "spans-"+w.name+".jsonl")
		if err := writeSpans(path, r.raw.spans); err != nil {
			return result{}, err
		}
	}
	return r.result(w.name, seed, o.trace), nil
}

// tally accumulates the measurements of one round, or of a whole run.
type tally struct {
	attempted, failed int
	firstErr          string
	setups, rss       []float64
	lat, tracedLat    []float64 // ms; batch: op wall, serve: open loop from due time
	late, connWait    []float64 // ms, open-loop generator
	funcs, busy       float64   // Σ functions scanned, Σ op service seconds
	satN              int       // completions while saturated
	satS              float64   // seconds saturated
	allocs            float64
	allocOps          int
	refs              []float64            // reference-kernel samples, ns
	layers            map[string][]float64 // per op (per round for runtime.* in serve)
	spans             []span
}

func newTally() *tally { return &tally{layers: map[string][]float64{}} }

func (t *tally) add(errMsg string) {
	t.attempted++
	if errMsg != "" {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = errMsg
		}
	}
}

func (t *tally) addLayers(l map[string]float64) {
	for k, v := range l {
		t.layers[k] = append(t.layers[k], v)
	}
}

// merge adds round r to t with its times scaled by f and its rates by
// 1/f; f = 1 keeps them as measured.
func (t *tally) merge(r *tally, f float64) {
	scaled := func(dst, src []float64) []float64 {
		for _, v := range src {
			dst = append(dst, v*f)
		}
		return dst
	}
	t.attempted += r.attempted
	t.failed += r.failed
	if t.firstErr == "" {
		t.firstErr = r.firstErr
	}
	t.setups = scaled(t.setups, r.setups)
	t.rss = append(t.rss, r.rss...)
	t.lat = scaled(t.lat, r.lat)
	t.tracedLat = scaled(t.tracedLat, r.tracedLat)
	t.late = scaled(t.late, r.late)
	t.connWait = scaled(t.connWait, r.connWait)
	t.funcs += r.funcs
	t.busy += r.busy * f
	t.satN += r.satN
	t.satS += r.satS * f
	t.allocs += r.allocs
	t.allocOps += r.allocOps
	for _, m := range perLayer {
		for _, v := range r.layers[m.Name] {
			t.layers[m.Name] = append(t.layers[m.Name], calibrate(m.Unit, v, f))
		}
	}
	t.spans = append(t.spans, r.spans...)
}

// run is one workload run: its rounds merged as measured (raw) and in
// reference-machine units (cal), each round by the reference samples
// taken during it, so that drift within a run is corrected too.
type run struct {
	raw, cal *tally
	factors  []float64
}

func (r *run) addRound(rt *tally) {
	f := 1.0
	if len(rt.refs) > 0 {
		f = float64(refNominal) / median(rt.refs)
	}
	r.raw.merge(rt, 1)
	r.cal.merge(rt, f)
	r.factors = append(r.factors, f)
}

// result is one workload run's outcome. Metrics holds the catalog's
// metrics in reference-machine units; Raw holds them as the wall clock
// read them, plus the error ratio, the latency sample count and the
// open-loop generator's lateness. Calibration is the rounds' median
// factor.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FirstError  string             `json:"first_error,omitempty"`
	Calibration float64            `json:"calibration"`
	Metrics     map[string]float64 `json:"metrics"`
	Raw         map[string]float64 `json:"raw"`
}

func (r *run) result(name string, seed int64, trace bool) result {
	cal := r.cal.values(trace)
	m := map[string]float64{}
	for _, x := range catalog(trace) {
		m[x.Name] = cal[x.Name]
	}
	return result{Workload: name, Seed: seed, Attempted: r.raw.attempted, Failed: r.raw.failed,
		FirstError: r.raw.firstErr, Calibration: median(r.factors), Metrics: m, Raw: r.raw.values(trace)}
}

// values computes every metric of one kind from the tally.
func (t *tally) values(trace bool) map[string]float64 {
	v := map[string]float64{}
	if trace {
		for _, x := range perLayer {
			v[x.Name] = median(t.layers[x.Name])
		}
		v["loadgen.late_p90_ms"] = nearestRank(t.late, 0.9)
		v["loadgen.conn_wait_p50_ms"] = median(t.connWait)
		v["trace.untraced_p50_ms"] = median(t.lat)
		v["trace.traced_p50_ms"] = median(t.tracedLat)
		v["trace.overhead_ratio"] = ratio(v["trace.traced_p50_ms"], v["trace.untraced_p50_ms"])
		return v
	}
	v["setup_s"] = median(t.setups)
	v["latency_p50_ms"] = nearestRank(t.lat, 0.5)
	v["latency_p90_ms"] = nearestRank(t.lat, 0.9)
	v["scan_funcs_per_s"] = ratio(t.funcs, t.busy)
	v["saturated_rps"] = ratio(float64(t.satN), t.satS)
	v["peak_rss_mb"] = median(t.rss)
	v["allocs_per_op"] = ratio(t.allocs, float64(t.allocOps))
	v["error_ratio"] = ratio(float64(t.failed), float64(t.attempted))
	v["latency_samples"] = float64(len(t.lat))
	if len(t.late) > 0 {
		v["loadgen.late_p90_ms"] = nearestRank(t.late, 0.9)
	}
	return v
}

func catalog(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of one run by name with its unit and raw
// value, plus the error ratio, the latency sample count and, for serve,
// how late the open-loop generator ran.
func printResult(w io.Writer, r result, trace bool) {
	fmt.Fprintf(w, "%s seed=%d attempted=%d failed=%d calibration=%.4f\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Calibration)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstError)
	}
	for _, x := range catalog(trace) {
		fmt.Fprintf(w, "  %-26s %14.4f %s (raw %.4f)\n", x.Name, r.Metrics[x.Name], x.Unit, r.Raw[x.Name])
	}
	if !trace {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", "error_ratio", r.Raw["error_ratio"], "ratio")
		fmt.Fprintf(w, "  %-26s %14.0f %s\n", "latency_samples", r.Raw["latency_samples"], "count")
		if late, ok := r.Raw["loadgen.late_p90_ms"]; ok {
			fmt.Fprintf(w, "  %-26s %14.4f %s (raw)\n", "loadgen.late_p90_ms", late, "ms")
		}
	}
}

// printSpread prints each metric's median and interquartile range over
// -repeat runs.
func printSpread(w io.Writer, runs []result, trace bool) {
	fmt.Fprintf(w, "%s over %d runs\n", runs[0].Workload, len(runs))
	fmt.Fprintf(w, "  %-26s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "iqr/med")
	for _, x := range catalog(trace) {
		q1, q2, q3 := quartiles(column(runs, x.Name))
		fmt.Fprintf(w, "  %-26s %14.4f %14.4f %14.4f %7.2f%% %s\n",
			x.Name, q2, q1, q3, 100*ratio(q3-q1, q2), x.Unit)
	}
}

// printLine prints the result line: the runs' median of every metric,
// with their attempted and failed ops summed.
func printLine(w io.Writer, runs []result, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range runs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	for _, x := range catalog(trace) {
		_, q2, _ := quartiles(column(runs, x.Name))
		line.Metrics[x.Name] = value{q2, x.Unit}
	}
	data, _ := json.Marshal(line) // plain values: cannot fail
	fmt.Fprintln(w, string(data))
}

// column is one metric's value in each run.
func column(runs []result, name string) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name]
	}
	return vals
}
