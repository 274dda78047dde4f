package main

import (
	"math"
	"sort"
)

// metric is one named, unit-carrying number the benchmark prints. The
// names and units here are the ones BENCHMARK.json records; metrics_test
// keeps the two in step.
type metric struct {
	Name string
	Unit string
}

// endToEnd are the numbers a user of rid sees. error_ratio is printed
// beside them but is not in this list: it is 0 on a correct run, and the
// failed/attempted counts of the result line carry it.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"scan_funcs_per_s", "funcs/s"},
	{"saturated_rps", "req/s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_op", "count"},
}

// perLayer are the -trace numbers: per op, median over ops. A layer a
// workload does not exercise reads 0 (store outside serve_edit, serve and
// loadgen in batch, sched at Workers=1).
var perLayer = []metric{
	{"frontend.parse_ms", "ms"},
	{"frontend.parse_mb_per_s", "MB/s"},
	{"lower.lower_ms", "ms"},
	{"lower.ir_instrs", "count"},
	{"callgraph.build_ms", "ms"},
	{"callgraph.sccs", "count"},
	{"core.classify_ms", "ms"},
	{"core.funcs_analyzed", "count"},
	{"core.analyze_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"cfg.enumerate_ms", "ms"},
	{"cfg.paths", "count"},
	{"cfg.paths_truncated", "count"},
	{"symexec.exec_ms", "ms"},
	{"symexec.subcases_forked", "count"},
	{"symexec.summary_entries", "count"},
	{"solver.query_ms", "ms"},
	{"solver.queries", "count"},
	{"solver.cache_hit_ratio", "ratio"},
	{"solver.gave_up", "count"},
	{"ipp.check_ms", "ms"},
	{"ipp.candidates", "count"},
	{"ipp.confirmed", "count"},
	{"ipp.confirm_ratio", "ratio"},
	{"sched.tasks", "count"},
	{"sched.steal_ratio", "ratio"},
	{"sched.steal_ms", "ms"},
	{"sched.queue_wait_ms", "ms"},
	{"store.io_ms", "ms"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.hit_ratio", "ratio"},
	{"store.us_per_lookup", "us"},
	{"report.render_ms", "ms"},
	{"report.bytes", "bytes"},
	{"serve.client_ms", "ms"},
	{"serve.server_ms", "ms"},
	{"serve.admit_wait_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.codec_ms", "ms"},
	{"serve.frontend_render_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.conn_wait_p50_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MiB"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// nearestRank is the exact q-quantile of raw samples by the nearest-rank
// rule: the smallest sample with at least q of all samples at or below
// it. It always returns one of the samples, so min ≤ p50 ≤ p90 ≤ max
// holds by construction. Empty input gives 0.
func nearestRank(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank p50.
func median(samples []float64) float64 { return nearestRank(samples, 0.5) }

// quartiles returns Q1, Q2 and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so the -repeat spread reads the same as any
// external check of the same values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// ratio is a/b, or 0 when b is 0 (a layer with no attempts).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
