// Request-scoped observability for the daemon: request identity,
// per-route counters and duration histograms, the Prometheus /metrics
// endpoint, JSONL access logs, and tail-sampled slow-request traces.
//
// Everything on the per-request hot path is fixed-size atomics (route ×
// status-class counter matrix, lock-free histograms) so instrumentation
// adds no locks and no allocations beyond the one request record, which
// is pooled. The expensive artifacts — access-log lines, trace buffers —
// exist only when the corresponding Config field is set.
package serve

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/promtext"
	"repro/rid"
)

// ---------------------------------------------------------------------------
// Routes and status buckets

// route is the daemon's fixed endpoint taxonomy — the label set of
// rid_serve_requests_total. Derived from the URL path, not the mux
// pattern, so unknown paths land in routeOther instead of exploding the
// label space.
type route uint8

const (
	routeAnalyze route = iota
	routeExplain
	routeSummary
	routeHealthz
	routeMetrics
	routeDebug
	routeOther
	numRoutes
)

var routeNames = [numRoutes]string{
	routeAnalyze: "analyze",
	routeExplain: "explain",
	routeSummary: "summary",
	routeHealthz: "healthz",
	routeMetrics: "metrics",
	routeDebug:   "debug",
	routeOther:   "other",
}

func routeOf(path string) route {
	switch {
	case path == "/v1/analyze":
		return routeAnalyze
	case strings.HasPrefix(path, "/v1/explain/"):
		return routeExplain
	case strings.HasPrefix(path, "/v1/summary/"):
		return routeSummary
	case path == "/healthz":
		return routeHealthz
	case path == "/metrics":
		return routeMetrics
	case strings.HasPrefix(path, "/debug/"):
		return routeDebug
	}
	return routeOther
}

// statusCodes is the fixed set of status codes the daemon emits; anything
// else folds into the final "other" bucket. Fixed so the counter matrix
// is a lock-free array and exposition order is deterministic.
var statusCodes = [...]int{200, 400, 404, 413, 429, 500, 503, 504}

const numStatus = len(statusCodes) + 1 // + other

func statusIdx(code int) int {
	for i, c := range statusCodes {
		if c == code {
			return i
		}
	}
	return len(statusCodes)
}

// ---------------------------------------------------------------------------
// Serve-level metrics

// serveMetrics is the daemon's own metric store, beside (not inside) the
// analysis registry: request counts by route and status, and wall-clock
// histograms for queue wait and request duration. The route×status
// matrix is the one count of every request outcome: /healthz derives
// served, rejected and deadline_exceeded from it. All fields are
// lock-free; exposition iterates them in fixed order.
type serveMetrics struct {
	requests   [numRoutes][numStatus]atomic.Int64
	queueWait  obs.Histogram
	duration   [numRoutes]obs.Histogram
	slowTraces atomic.Int64
}

// answered sums one status code's requests over every route.
func (m *serveMetrics) answered(code int) int64 {
	var n int64
	for rt := range m.requests {
		n += m.requests[rt][statusIdx(code)].Load()
	}
	return n
}

// ---------------------------------------------------------------------------
// Request identity

// newRequestID mints a request ID: 16 hex digits from crypto/rand.
func newRequestID() string {
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // crypto/rand never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// requestIDHeader names the request on the wire: honored inbound (so a
// proxy can stitch its own IDs through), always echoed on the response.
const requestIDHeader = "X-Rid-Request-Id"

// validInboundID gates inbound IDs: path-safe (the ID can become a
// slow-trace file name) and bounded.
func validInboundID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return id != "." && id != ".."
}

// ---------------------------------------------------------------------------
// Per-request record

// reqRecord accumulates what one request did, for the access log and the
// slow-trace sampling decision. Records are pooled; handlers reach theirs
// through the response writer (see instrumented).
type reqRecord struct {
	id        string
	route     route
	status    int
	queueWait time.Duration
	elapsed   time.Duration
	storeHit  int64
	storeMiss int64
	lowered   int64 // function bodies the request's run lowered
	degraded  bool
	panicked  bool
	diags     []string // degradation kinds, deduplicated, sorted
	phases    []rid.PhaseTiming
	trace     *boundedBuf // per-request JSONL span buffer, nil unless sampling
}

func (rec *reqRecord) reset() {
	*rec = reqRecord{diags: rec.diags[:0], phases: rec.phases[:0]}
}

var recordPool = sync.Pool{New: func() any { return new(reqRecord) }}

// instrumented is the response writer wrapper carrying the request
// record; handlers reach it through w to annotate the request and to
// hand it their admission slot.
type instrumented struct {
	http.ResponseWriter
	s       *Server
	rec     *reqRecord
	t0      time.Time
	release func() // the admission slot, held until the reply starts
}

func (iw *instrumented) WriteHeader(code int) {
	if iw.rec.status == 0 {
		iw.replyStarts(code)
	}
	iw.ResponseWriter.WriteHeader(code)
}

func (iw *instrumented) Write(b []byte) (int, error) {
	if iw.rec.status == 0 {
		iw.replyStarts(http.StatusOK)
	}
	return iw.ResponseWriter.Write(b)
}

// replyStarts accounts for the request once, as its reply starts and
// before any byte of it can reach the client: the admission slot goes
// back, the slow-trace decision is made (timed to this point), and the
// route×status count moves. So every counter and gauge /healthz and
// /metrics show is final by the time the client sees the status line.
func (iw *instrumented) replyStarts(code int) {
	rec, s := iw.rec, iw.s
	rec.status = code
	iw.releaseSlot()
	if rec.trace != nil {
		if flushed, err := s.sampler.finish(rec, time.Since(iw.t0)); err != nil {
			s.logf("slow-trace flush %s: %v", rec.id, err)
		} else if flushed {
			s.metrics.slowTraces.Add(1)
		}
	}
	s.metrics.requests[rec.route][statusIdx(code)].Add(1)
}

func (iw *instrumented) releaseSlot() {
	if iw.release != nil {
		iw.release()
		iw.release = nil
	}
}

// instrument wraps the daemon's mux: assigns the request ID, accounts for
// the request when its reply starts (replyStarts), times the whole
// request into the duration histogram and emits the access-log line.
// One wrapper for every route so the accounting can't drift from the
// mux table. A handler that writes nothing is counted as a 200 when it
// returns.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := recordPool.Get().(*reqRecord)
		rec.reset()
		rec.route = routeOf(r.URL.Path)
		if id := r.Header.Get(requestIDHeader); validInboundID(id) {
			rec.id = id
		} else {
			rec.id = newRequestID()
		}
		w.Header().Set(requestIDHeader, rec.id)
		if s.sampler != nil && rec.route == routeAnalyze {
			rec.trace = s.sampler.buffer()
		}
		iw := &instrumented{ResponseWriter: w, s: s, rec: rec, t0: time.Now()}
		defer iw.releaseSlot() // a handler that panics still gives its slot back
		next.ServeHTTP(iw, r)
		if rec.status == 0 {
			iw.replyStarts(http.StatusOK)
		}
		rec.elapsed = time.Since(iw.t0)
		s.metrics.duration[rec.route].Observe(rec.elapsed)
		if s.access != nil {
			s.access.log(rec)
		}
		recordPool.Put(rec)
	})
}

// ---------------------------------------------------------------------------
// Access log

// accessPhases is the per-request phase breakdown the access log and
// Server-Timing header carry: the obs phase table in its (append-only)
// order, less the run-level and scheduler-internal phases.
var accessPhases = func() []string {
	var out []string
	for p := obs.Phase(0); int(p) < obs.NumPhases; p++ {
		if p != obs.PhaseRun && p != obs.PhaseSteal && p != obs.PhaseQueue {
			out = append(out, p.String())
		}
	}
	return out
}()

// accessLogger writes one JSONL line per request with a fixed key order:
//
//	{"id":...,"route":...,"status":...,"queue_wait_us":...,"elapsed_us":...,
//	 "phases":{"classify":...,...},"store_hits":...,"store_misses":...,
//	 "degraded":...,"diags":[...],"funcs_lowered":...}
//
// New keys are appended; keys never move or change meaning, and a key
// is removed only together with the mechanism it reports. Writes are
// serialized and the line buffer reused, mirroring obs.JSONLTracer.
type accessLogger struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

func newAccessLogger(w io.Writer) *accessLogger { return &accessLogger{w: w} }

func (l *accessLogger) log(rec *reqRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	b := l.buf[:0]
	b = append(b, `{"id":`...)
	b = strconv.AppendQuote(b, rec.id)
	b = append(b, `,"route":"`...)
	b = append(b, routeNames[rec.route]...)
	b = append(b, `","status":`...)
	b = strconv.AppendInt(b, int64(rec.status), 10)
	b = append(b, `,"queue_wait_us":`...)
	b = strconv.AppendInt(b, rec.queueWait.Microseconds(), 10)
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, rec.elapsed.Microseconds(), 10)
	b = append(b, `,"phases":{`...)
	for i, name := range accessPhases {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, phaseTotal(rec.phases, name).Microseconds(), 10)
	}
	b = append(b, `},"store_hits":`...)
	b = strconv.AppendInt(b, rec.storeHit, 10)
	b = append(b, `,"store_misses":`...)
	b = strconv.AppendInt(b, rec.storeMiss, 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, rec.degraded)
	b = append(b, `,"diags":[`...)
	for i, d := range rec.diags {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, d)
	}
	b = append(b, `],"funcs_lowered":`...)
	b = strconv.AppendInt(b, rec.lowered, 10)
	b = append(b, '}', '\n')
	l.buf = b
	_, l.err = l.w.Write(b)
}

func phaseTotal(phases []rid.PhaseTiming, name string) time.Duration {
	for _, p := range phases {
		if p.Phase == name {
			return p.Total
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Tail-sampled slow traces

// maxTraceBuf bounds one request's in-memory span buffer (4 MiB of JSONL
// is tens of thousands of spans); a request exceeding it keeps its first
// maxTraceBuf bytes and the flushed file notes the truncation.
const maxTraceBuf = 4 << 20

// boundedBuf is an io.Writer that keeps the first cap bytes and drops
// (but counts) the rest — the per-request trace sink. Never fails, so a
// huge run can't fail its own analysis by tracing.
type boundedBuf struct {
	b       []byte
	dropped int64
}

func (t *boundedBuf) Write(p []byte) (int, error) {
	if room := maxTraceBuf - len(t.b); room > 0 {
		if len(p) <= room {
			t.b = append(t.b, p...)
		} else {
			t.b = append(t.b, p[:room]...)
			t.dropped += int64(len(p) - room)
		}
	} else {
		t.dropped += int64(len(p))
	}
	return len(p), nil
}

// slowWindow is the sliding sample of recent analyze durations backing
// the p99 trigger; slowWindowMin is how many samples must accumulate
// before the p99 trigger arms (below it only the fixed threshold, 504,
// and panic triggers fire, so a cold server doesn't flush its first
// requests as "slow").
const (
	slowWindow    = 256
	slowWindowMin = 64
)

// slowSampler decides which requests leave a trace on disk: every
// analyze request buffers its spans in memory (bounded, pooled), and the
// buffer is flushed to <dir>/<request-id>.jsonl only when the request
// was slow — over the fixed threshold, over the sliding-window p99 — or
// ended badly (504, panic diagnostic). Everything else returns its
// buffer to the pool and costs no I/O.
type slowSampler struct {
	dir       string
	threshold time.Duration

	mu     sync.Mutex
	window [slowWindow]int64
	n      int // total recorded (ring is full once n >= slowWindow)

	pool sync.Pool
}

func newSlowSampler(dir string, threshold time.Duration) *slowSampler {
	s := &slowSampler{dir: dir, threshold: threshold}
	s.pool.New = func() any { return new(boundedBuf) }
	return s
}

func (s *slowSampler) buffer() *boundedBuf {
	b := s.pool.Get().(*boundedBuf)
	b.b = b.b[:0]
	b.dropped = 0
	return b
}

// slow reports whether dur trips a sampling trigger, and records dur in
// the sliding window either way.
func (s *slowSampler) slow(dur time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	trip := s.threshold > 0 && dur >= s.threshold
	if !trip && s.n >= slowWindowMin {
		var tmp [slowWindow]int64
		m := copy(tmp[:], s.window[:min(s.n, slowWindow)])
		sorted := tmp[:m]
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		p99 := sorted[(m*99+99)/100-1]
		trip = int64(dur) > p99
	}
	s.window[s.n%slowWindow] = int64(dur)
	s.n++
	return trip
}

// finish makes the sampling decision for one analyze request whose reply
// starts replyAt after the request did, and either flushes its trace file
// or recycles the buffer. It reports whether a file was written.
func (s *slowSampler) finish(rec *reqRecord, replyAt time.Duration) (flushed bool, err error) {
	buf := rec.trace
	rec.trace = nil
	bad := rec.status == http.StatusGatewayTimeout || rec.panicked
	slow := s.slow(replyAt)
	if (bad || slow) && len(buf.b) > 0 {
		err = s.flush(rec, replyAt, buf)
		flushed = err == nil
	}
	if cap(buf.b) <= maxTraceBuf {
		s.pool.Put(buf)
	}
	return flushed, err
}

// flush writes the trace file. The first line is a header object (same
// append-only JSONL discipline) identifying the request; reply_us is the
// time from the request's start to its reply's start, when the flush
// decision is made. Span lines follow verbatim. rec.id is validated
// path-safe at ingress.
func (s *slowSampler) flush(rec *reqRecord, replyAt time.Duration, buf *boundedBuf) error {
	var hdr []byte
	hdr = append(hdr, `{"request_id":`...)
	hdr = strconv.AppendQuote(hdr, rec.id)
	hdr = append(hdr, `,"status":`...)
	hdr = strconv.AppendInt(hdr, int64(rec.status), 10)
	hdr = append(hdr, `,"reply_us":`...)
	hdr = strconv.AppendInt(hdr, replyAt.Microseconds(), 10)
	hdr = append(hdr, `,"dropped_bytes":`...)
	hdr = strconv.AppendInt(hdr, buf.dropped, 10)
	hdr = append(hdr, '}', '\n')

	path := filepath.Join(s.dir, rec.id+".jsonl")
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(hdr); err == nil {
		_, err = f.Write(buf.b)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of a failed write
		return err
	}
	return os.Rename(tmp, path)
}

// ---------------------------------------------------------------------------
// GET /metrics

// WriteMetrics renders the daemon's full Prometheus exposition: the
// serve-level families first (requests, admission gauges, queue-wait and
// duration histograms, the slow-trace counter), then the shared analysis
// registry via rid's exposition. Families are disjoint, so the
// concatenation is one valid text-format document — `rid serve
// -check-metrics` and the daemon tests round-trip it through
// promtext.Parse.
func (s *Server) WriteMetrics(w io.Writer) error {
	pw := promtext.NewWriter(w)

	pw.Family("rid_serve_requests_total", "counter", "HTTP requests served, by route and status code")
	for rt := route(0); rt < numRoutes; rt++ {
		for si := 0; si < numStatus; si++ {
			v := s.metrics.requests[rt][si].Load()
			if v == 0 {
				continue // keep the exposition small; absent = 0 to Prometheus
			}
			code := "other"
			if si < len(statusCodes) {
				code = strconv.Itoa(statusCodes[si])
			}
			pw.Int("rid_serve_requests_total", []promtext.Label{
				{Name: "route", Value: routeNames[rt]},
				{Name: "code", Value: code},
			}, v)
		}
	}

	pw.Family("rid_serve_inflight", "gauge", "analyses running now")
	pw.Int("rid_serve_inflight", nil, int64(s.gate.Inflight()))
	pw.Family("rid_serve_inflight_limit", "gauge", "MaxInflight setting")
	pw.Int("rid_serve_inflight_limit", nil, int64(s.cfg.MaxInflight))
	pw.Family("rid_serve_queued", "gauge", "requests waiting for an inflight slot")
	pw.Int("rid_serve_queued", nil, s.gate.Queued())
	pw.Family("rid_serve_queue_limit", "gauge", "QueueDepth setting")
	pw.Int("rid_serve_queue_limit", nil, int64(s.cfg.QueueDepth))

	pw.Family("rid_serve_slow_traces_total", "counter", "slow-request trace files flushed by tail sampling")
	pw.Int("rid_serve_slow_traces_total", nil, s.metrics.slowTraces.Load())

	pw.Family("rid_serve_queue_wait_seconds", "histogram", "admission queue wait per admitted analyze request")
	s.metrics.queueWait.AppendProm(pw, "rid_serve_queue_wait_seconds")
	pw.Family("rid_serve_request_duration_seconds", "histogram", "wall-clock per HTTP request, by route")
	for rt := route(0); rt < numRoutes; rt++ {
		s.metrics.duration[rt].AppendProm(pw, "rid_serve_request_duration_seconds",
			promtext.Label{Name: "route", Value: routeNames[rt]})
	}

	if err := pw.Flush(); err != nil {
		return err
	}
	return s.base.WritePrometheus(w)
}

// CheckMetrics renders the exposition to memory and feeds it back
// through the validating parser — the self-check behind `rid serve
// -check-metrics` and the CI well-formedness gate.
func (s *Server) CheckMetrics() error {
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		return err
	}
	_, err := promtext.Parse(&buf)
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.WriteMetrics(w); err != nil {
		s.logf("metrics: %v", err)
	}
}

// serverTiming renders the phase breakdown as a Server-Timing header
// value: `classify;dur=0.1, exec;dur=42.3, ...` (dur in milliseconds,
// phases in fixed order, zero phases included so the set is stable).
func serverTiming(phases []PhaseMS) string {
	var b []byte
	for i, name := range accessPhases {
		if i > 0 {
			b = append(b, ',', ' ')
		}
		b = append(b, name...)
		b = append(b, ";dur="...)
		var ms float64
		for _, p := range phases {
			if p.Phase == name {
				ms = p.MS
				break
			}
		}
		b = strconv.AppendFloat(b, ms, 'f', 3, 64)
	}
	return string(b)
}
