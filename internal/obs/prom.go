// Prometheus text exposition of the metrics registry: every counter as a
// `rid_<name>_total` family and every phase histogram as one labeled
// `rid_phase_duration_seconds` series with cumulative log2-ns buckets —
// the `GET /metrics` surface of `rid serve`, rendered with the same
// hand-rolled discipline as render.go and validated by
// internal/obs/promtext.
package obs

import (
	"io"
	"math"
	"time"

	"repro/internal/obs/promtext"
)

// counterHelp is the HELP line per counter family, indexed by Metric.
var counterHelp = [numMetrics]string{
	MFuncsAnalyzed:    "functions summarized (Step II ran)",
	MPathsEnumerated:  "entry-to-exit paths produced by Step I",
	MPathsTruncated:   "functions whose enumeration hit MaxPaths",
	MSubcasesForked:   "states forked on callee summary entries",
	MSummaryEntries:   "finalized per-path summary entries",
	MSolverQueries:    "satisfiability queries issued",
	MSolverCacheHits:  "queries answered from the shared cache",
	MSolverSat:        "SAT verdicts (give-ups and cache hits included)",
	MSolverUnsat:      "UNSAT verdicts (cache hits included)",
	MSolverGaveUp:     "queries over budget, answered SAT",
	MIPPCandidates:    "Step III pairs that reached the solver",
	MIPPConfirmed:     "inconsistent path pair reports emitted",
	MReplayConfirmed:  "reports whose witness replay confirmed the IPP",
	MReplayDiverged:   "reports whose replay contradicted the static claim",
	MReplayUnreplayed: "reports whose recorded paths were not reproduced",
	MStoreHits:        "functions served from the persistent summary store",
	MStoreMisses:      "functions analyzed cold",
	MStoreEvictions:   "stale store entries replaced by a fresh write",
	MTasksExecuted:    "functions analyzed cold, one scheduler task each",
	MTasksStolen:      "always 0, kept for bench/ridperf",
	MRemoteHits:       "functions served from the fleet summary store",
	MRemoteMisses:     "fleet-store lookups that found no usable entry",
	MRemoteErrors:     "fleet-store operations that failed",
	MRemoteIntegrity:  "fleet-store responses rejected by validation",
	MRemotePuts:       "entries shipped to the fleet store",
	MResidentHits:     "store hits served from memory without a disk read",
	MFrontendReused:   "source files whose lowered IR was reused",
	MFrontendLowered:  "source files parsed and lowered",
	MFuncsLowered:     "function bodies lowered to IR",
}

// promBucketBounds returns the histogram upper bounds in seconds: bucket
// k of a log2-ns hist holds durations in [2^(k-1), 2^k) ns, so 2^k ns is
// an inclusive upper bound for everything in buckets 0..k. The last
// bucket is the overflow clamp and folds into +Inf.
func promBucketBounds() []float64 {
	out := make([]float64, histBuckets-1)
	for i := range out {
		out[i] = math.Ldexp(1, i) / 1e9
	}
	return out
}

// appendHistProm emits one histogram sub-series from a live hist.
// Reads are not atomic across buckets; to keep the emitted series
// internally consistent under concurrent observes (cumulative buckets,
// +Inf == _count — what promtext validates and scrapers reject
// otherwise), the bucket counts are read once and _count is derived from
// their sum rather than read separately.
func appendHistProm(pw *promtext.Writer, name string, labels []promtext.Label, h *hist) {
	var raw [histBuckets]int64
	for i := range raw {
		raw[i] = h.buckets[i].Load()
	}
	sumNS := h.sum.Load()
	counts := make([]int64, histBuckets-1)
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		cum += raw[i]
		counts[i] = cum
	}
	total := cum + raw[histBuckets-1]
	pw.Histogram(name, labels, promBucketBounds(), counts, float64(sumNS)/1e9, total)
}

// AppendPrometheus appends the registry's families to an exposition in
// progress: one rid_<counter>_total family per counter in fixed order,
// then rid_phase_duration_seconds with one sub-series per phase. The
// family set and order are deterministic regardless of activity.
func AppendPrometheus(pw *promtext.Writer, r *Registry) {
	for m := Metric(0); m < numMetrics; m++ {
		name := "rid_" + m.Name() + "_total"
		pw.Family(name, "counter", counterHelp[m])
		pw.Int(name, nil, r.Counter(m))
	}
	const phName = "rid_phase_duration_seconds"
	pw.Family(phName, "histogram", "wall-clock per completed pipeline span, by phase")
	for p := Phase(0); p < numPhases; p++ {
		appendHistProm(pw, phName, []promtext.Label{{Name: "phase", Value: p.String()}}, &r.phases[p])
	}
}

// WritePrometheus renders the registry as a complete Prometheus text
// format v0.0.4 document.
func WritePrometheus(w io.Writer, r *Registry) error {
	pw := promtext.NewWriter(w)
	AppendPrometheus(pw, r)
	return pw.Flush()
}

// Histogram is a standalone lock-free log2-ns duration histogram for
// callers outside the phase taxonomy — `rid serve` keeps queue-wait and
// request-duration histograms and exposes them on /metrics next to the
// registry's phase series.
// The zero value is an empty histogram.
type Histogram struct{ h hist }

// Observe records one duration. Allocation-free and safe for concurrent
// use.
func (h *Histogram) Observe(d time.Duration) { h.h.observe(int64(d)) }

// AppendProm emits the histogram as one Prometheus sub-series.
func (h *Histogram) AppendProm(pw *promtext.Writer, name string, labels ...promtext.Label) {
	appendHistProm(pw, name, labels, &h.h)
}
