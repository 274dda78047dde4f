// Package obs is the observability layer of the pipeline: phase tracing
// with per-function labels, and an atomic registry of counters and
// wall-clock histograms that feeds core.Stats, `rid -metrics`, and the
// /debug/vars endpoint. It is zero-dependency (stdlib only) and sits at
// the bottom of the import graph so every stage — solver, cfg, symexec,
// ipp, core — can hook into it.
//
// The design goal is that the *absent* observer costs nothing: every hook
// is nil-safe on *Obs, spans are stack values (no allocation), and the
// default pipeline configuration (counters on, no tracer, no per-query
// timing) adds only a handful of atomic adds per function analyzed. See
// DESIGN.md ("Observability") for the span taxonomy and overhead budget.
package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Phase identifies one stage of the analysis pipeline. Span events and
// duration histograms are keyed by phase.
type Phase uint8

// The span taxonomy. PhaseRun covers a whole Analyze call; the others are
// per-function (fn label set) except PhaseClassify and PhaseCallgraph,
// which are per-run, and PhaseSolver, which is per-query (emitted only
// when query timing is on).
const (
	PhaseRun       Phase = iota // one whole Analyze call
	PhaseClassify               // §5.2 two-phase classification
	PhaseEnumerate              // Step I path enumeration
	PhaseExec                   // Step II symbolic execution
	PhaseIPP                    // Step III pairwise consistency check
	PhaseSolver                 // one satisfiability query
	PhaseReplay                 // one witness replay of a reported IPP
	PhaseCacheIO                // one persistent summary-store operation (digest/load/save)
	PhaseSteal                  // never recorded: nothing is stolen; kept for bench/ridperf
	PhaseQueue                  // never recorded: no task is queued; kept for bench/ridperf
	PhaseCallgraph              // call graph and SCC construction
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseRun:       "run",
	PhaseClassify:  "classify",
	PhaseEnumerate: "enumerate",
	PhaseExec:      "exec",
	PhaseIPP:       "ipp",
	PhaseSolver:    "solver",
	PhaseReplay:    "replay",
	PhaseCacheIO:   "cacheio",
	PhaseSteal:     "steal",
	PhaseQueue:     "queue",
	PhaseCallgraph: "callgraph",
}

// String names the phase as it appears in trace and metrics output.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase" + strconv.Itoa(int(p))
}

// NumPhases is the number of defined phases (for iteration in renderers).
const NumPhases = int(numPhases)

// Tracer receives one event per completed span. Implementations must be
// safe for concurrent use: scheduler workers emit concurrently.
type Tracer interface {
	Span(ph Phase, fn string, start time.Time, dur time.Duration)
}

// Obs bundles an optional Tracer with an optional Registry. All methods
// are nil-receiver-safe, so pipeline code threads a possibly-nil *Obs and
// calls hooks unconditionally; the nil observer compiles down to a
// pointer test.
type Obs struct {
	tracer      Tracer
	reg         *Registry
	queryTiming bool
}

// New returns an observer emitting spans to t (may be nil) and counting
// into r (may be nil). A nil Obs — or New(nil, nil) — observes nothing.
func New(t Tracer, r *Registry) *Obs {
	return &Obs{tracer: t, reg: r}
}

// EnableQueryTiming turns on per-solver-query duration measurement (the
// PhaseSolver histogram and, with a tracer, per-query spans). Off by
// default: individual queries can be sub-microsecond, where even two
// time.Now calls are measurable.
func (o *Obs) EnableQueryTiming() {
	if o != nil {
		o.queryTiming = true
	}
}

// QueryTiming reports whether solver queries should be individually timed:
// explicitly enabled, or implied by an attached tracer.
func (o *Obs) QueryTiming() bool {
	return o != nil && (o.queryTiming || o.tracer != nil)
}

// Registry returns the attached registry, or nil.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// With returns a derived observer emitting spans to t instead of o's
// tracer, counting into the same registry with the same query-timing
// setting. It is the request-scoped tracer seam: `rid serve` attaches a
// per-request buffer tracer for tail-sampled slow-request capture
// without touching the process-wide observer. With(nil) detaches the
// tracer; a nil receiver yields a tracer-only observer.
func (o *Obs) With(t Tracer) *Obs {
	if o == nil {
		if t == nil {
			return nil
		}
		return &Obs{tracer: t}
	}
	return &Obs{tracer: t, reg: o.reg, queryTiming: o.queryTiming}
}

// Seqer is implemented by tracers that expose a strictly-increasing event
// sequence number (JSONLTracer does). Provenance capture uses it to
// cross-link solver queries in Evidence records to trace lines.
type Seqer interface {
	Seq() int64
}

// TraceSeq returns the attached tracer's current sequence number — the seq
// of the most recently emitted span — or 0 when no tracer is attached or
// the tracer does not number its events. Under concurrent workers the
// returned value is a lower bound on the seq of the next span, which is
// enough to locate the relevant window of a JSONL trace.
func (o *Obs) TraceSeq() int64 {
	if o == nil || o.tracer == nil {
		return 0
	}
	if s, ok := o.tracer.(Seqer); ok {
		return s.Seq()
	}
	return 0
}

// EnsureRegistry returns o if it already carries a registry, or a derived
// observer (same tracer and query-timing setting) backed by a fresh one.
// core calls this so Stats.Solver can always be read back from registry
// deltas, whether or not the caller asked to observe anything.
func (o *Obs) EnsureRegistry() *Obs {
	if o != nil && o.reg != nil {
		return o
	}
	n := &Obs{reg: NewRegistry()}
	if o != nil {
		n.tracer = o.tracer
		n.queryTiming = o.queryTiming
	}
	return n
}

// Count adds d to metric m. No-op without a registry.
func (o *Obs) Count(m Metric, d int64) {
	if o == nil || o.reg == nil {
		return
	}
	o.reg.Count(m, d)
}

// Span is an in-flight measurement. It is a stack value: starting and
// ending a span never allocates, and the zero Span (from a nil observer)
// ends as a no-op.
type Span struct {
	o  *Obs
	ph Phase
	fn string
	t0 time.Time
}

// Start opens a span for phase ph attributed to function fn (empty for
// run-level phases). Returns the zero Span when nothing observes.
func (o *Obs) Start(ph Phase, fn string) Span {
	if o == nil || (o.tracer == nil && o.reg == nil) {
		return Span{}
	}
	return Span{o: o, ph: ph, fn: fn, t0: time.Now()}
}

// StartQuery is Start for PhaseSolver, gated on QueryTiming.
func (o *Obs) StartQuery(fn string) Span {
	if !o.QueryTiming() {
		return Span{}
	}
	return Span{o: o, ph: PhaseSolver, fn: fn, t0: time.Now()}
}

// End closes the span: the duration lands in the phase histogram and, with
// a tracer attached, one span event is emitted.
func (s Span) End() {
	if s.o == nil {
		return
	}
	d := time.Since(s.t0)
	if s.o.reg != nil {
		s.o.reg.Observe(s.ph, d)
	}
	if s.o.tracer != nil {
		s.o.tracer.Span(s.ph, s.fn, s.t0, d)
	}
}

// ---------------------------------------------------------------------------
// JSONL tracer

// JSONLTracer writes one JSON object per span, newline-delimited, with a
// fixed key order — the `rid -trace` format:
//
//	{"seq":3,"phase":"exec","fn":"drv_op","start_us":1738000000000000,"dur_us":412}
//
// seq is a global emission index (strictly increasing in file order),
// start_us the span's wall-clock start in Unix microseconds, dur_us its
// duration in microseconds. The schema is append-only: consumers must
// tolerate new keys, and existing keys never change meaning or type.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	seq int64
	err error
	buf []byte
}

// NewJSONLTracer returns a tracer writing to w. Writes are serialized; the
// first write error is retained (see Err) and later spans are dropped.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w}
}

// Span implements Tracer.
func (t *JSONLTracer) Span(ph Phase, fn string, start time.Time, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	b := t.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, t.seq, 10)
	b = append(b, `,"phase":"`...)
	b = append(b, ph.String()...)
	b = append(b, `","fn":`...)
	b = strconv.AppendQuote(b, fn)
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, start.UnixMicro(), 10)
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendInt(b, dur.Microseconds(), 10)
	b = append(b, '}', '\n')
	t.buf = b
	_, t.err = t.w.Write(b)
}

// Err returns the first write error encountered, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Seq returns the sequence number of the most recently emitted span (0
// before the first span). It implements Seqer for Evidence cross-linking.
func (t *JSONLTracer) Seq() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
