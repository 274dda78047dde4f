package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/store"
	"repro/internal/store/remote"
	"repro/internal/sym"
	"repro/rid"
)

// maxBodyBytes bounds an analyze request body (sources inline as JSON).
const maxBodyBytes = 32 << 20

// AnalyzeRequest is the POST /v1/analyze body. Exactly one of Files and
// Corpus selects the sources; everything else is optional.
type AnalyzeRequest struct {
	// Spec names a built-in specification pack ("fd", "linux-dpm",
	// "lock", "python-c"); empty uses the server default. SpecPacks merge
	// further built-in packs on top (conflicting API definitions are
	// rejected), and SpecSrc is additional summary-DSL source merged last.
	Spec      string   `json:"spec,omitempty"`
	SpecPacks []string `json:"spec_packs,omitempty"`
	SpecSrc   string   `json:"spec_src,omitempty"`
	// Files maps file names to mini-C sources. Corpus instead analyzes
	// the corpus the server loaded at startup (-dir).
	Files  map[string]string `json:"files,omitempty"`
	Corpus bool              `json:"corpus,omitempty"`
	// Format ("text", "json", "sarif") and Verbose mirror the CLI flags;
	// the response's report field is byte-identical to `rid` stdout with
	// the same settings.
	Format  string `json:"format,omitempty"`
	Verbose bool   `json:"verbose,omitempty"`
	// Analysis budget overrides; zero keeps the server defaults. A
	// positive Workers is capped at GOMAXPROCS, since each worker owns a
	// goroutine, a solver and an executor, and output is byte-identical
	// at any Workers value; a negative one means all cores.
	Workers     int      `json:"workers,omitempty"`
	MaxPaths    int      `json:"max_paths,omitempty"`
	MaxSubcases int      `json:"max_subcases,omitempty"`
	Cat2Conds   int      `json:"cat2_conds,omitempty"`
	Suppress    []string `json:"suppress,omitempty"`
	// DeadlineMS shortens this request's deadline below the server's
	// RequestTimeout (it can never extend it).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Metrics includes the run's exact per-request metrics snapshot in
	// the response (the run then uses a private registry so concurrent
	// requests don't bleed into it). Trace includes the run's JSONL span
	// trace.
	Metrics bool `json:"metrics,omitempty"`
	Trace   bool `json:"trace,omitempty"`
	// NoCache has no effect; it is still decoded so clients that send it work.
	NoCache bool `json:"no_cache,omitempty"`
}

// Diag mirrors rid.Diagnostic on the wire.
type Diag struct {
	Function string `json:"function,omitempty"`
	Kind     string `json:"kind"`
	Cause    string `json:"cause"`
}

// AnalyzeResponse is the POST /v1/analyze reply. On 504 (deadline
// exceeded) Error is set and Report holds the partial report, mirroring
// the CLI's exit-3 partial-results contract.
type AnalyzeResponse struct {
	Report        string          `json:"report"`
	Bugs          int             `json:"bugs"`
	FuncsTotal    int             `json:"funcs_total"`
	FuncsAnalyzed int             `json:"funcs_analyzed"`
	Paths         int             `json:"paths"`
	Degraded      bool            `json:"degraded"`
	Diagnostics   []Diag          `json:"diagnostics,omitempty"`
	ElapsedMS     float64         `json:"elapsed_ms"`
	Phases        []PhaseMS       `json:"phases,omitempty"`
	Metrics       json.RawMessage `json:"metrics,omitempty"`
	Trace         string          `json:"trace,omitempty"`
	Error         string          `json:"error,omitempty"`
}

// PhaseMS is one pipeline phase's share of the request: spans completed
// and total wall-clock in milliseconds. The slice is in fixed phase
// order (classify, enumerate, exec, ipp, solver, cacheio, replay) and
// exact for this request alone at any Workers setting — the run counts
// into a private child of the server registry, so concurrent requests
// never bleed into each other's breakdown. The same numbers ride the
// Server-Timing response header.
type PhaseMS struct {
	Phase string  `json:"phase"`
	Count int64   `json:"count"`
	MS    float64 `json:"ms"`
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			errorJSON(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooLarge.Limit)
			return
		}
		errorJSON(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	if req.Corpus && len(req.Files) > 0 {
		errorJSON(w, http.StatusBadRequest, "files and corpus are mutually exclusive")
		return
	}
	if !req.Corpus && len(req.Files) == 0 {
		errorJSON(w, http.StatusBadRequest, "no sources: pass files, or corpus=true for the resident corpus")
		return
	}
	if req.Corpus && s.corpus == nil {
		errorJSON(w, http.StatusBadRequest, "no resident corpus: the server was started without -dir")
		return
	}
	specs, err := s.resolveSpecs(req.Spec, req.SpecPacks, req.SpecSrc)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch req.Format {
	case "", "text", "json", "sarif":
	default:
		errorJSON(w, http.StatusBadRequest, "unknown format %q (want text, json or sarif)", req.Format)
		return
	}

	// Admission before any expensive work.
	if !s.admit(w, r) {
		return
	}
	ctx, cancel := s.requestContext(r.Context(), req.DeadlineMS)
	defer cancel()

	t0 := time.Now()
	resp, status, runErr := s.runAnalyze(ctx, specs, &req, w.(*instrumented).rec)
	if runErr != nil {
		errorJSON(w, status, "%v", runErr)
		return
	}
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	s.logf("analyze files=%d corpus=%t status=%d elapsed=%.1fms",
		len(req.Files), req.Corpus, status, resp.ElapsedMS)
	w.Header().Set("Server-Timing", serverTiming(resp.Phases))
	writeJSON(w, status, resp)
}

// admit takes an inflight slot for the request behind w, or answers 429
// (with Retry-After) or 503 and returns false. The instrumentation
// middleware gives the slot back when the reply starts.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	iw := w.(*instrumented)
	release, wait, err := s.gate.Admit(r.Context())
	iw.rec.queueWait = wait
	switch {
	case err == nil:
		iw.release = release
		return true
	case errors.Is(err, admit.ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(s.gate.RetryAfter()))
		errorJSON(w, http.StatusTooManyRequests, "overloaded: %d analyses running, %d queued", s.gate.Inflight(), s.gate.Queued())
	default:
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
	}
	return false
}

// runAnalyze performs one admitted, deadline-bounded analysis and shapes
// the response. It returns a non-nil error only for client mistakes
// (unparsable sources); degradation is reported in-band. rec is annotated
// with the run's phase breakdown, store traffic, and degradation outcome
// for the access log and slow-trace sampler.
func (s *Server) runAnalyze(ctx context.Context, specs rid.Specs, req *AnalyzeRequest, rec *reqRecord) (*AnalyzeResponse, int, error) {
	// Every request runs on a child of the server registry: its own
	// counters are an exact per-request delta (the phase breakdown and
	// the Metrics snapshot are this run's alone, at any Workers
	// setting) while every event still rolls up into the shared
	// registry behind /metrics and /debug/vars.
	a := s.base.NewRequestChild()
	a.SetSpecs(specs)
	opts := s.cfg.Options
	if req.Workers != 0 {
		opts.Workers = min(req.Workers, runtime.GOMAXPROCS(0))
	}
	if req.MaxPaths != 0 {
		opts.MaxPaths = req.MaxPaths
	}
	if req.MaxSubcases != 0 {
		opts.MaxSubcases = req.MaxSubcases
	}
	if req.Cat2Conds != 0 {
		opts.MaxCat2Conds = req.Cat2Conds
	}
	if len(req.Suppress) > 0 {
		opts.Suppress = req.Suppress
	}
	if len(req.SpecPacks) > 0 {
		// Request packs stack on the server's -spec-pack defaults;
		// identical redefinitions merge cleanly, conflicts are a 400.
		opts.SpecPacks = append(append([]string(nil), opts.SpecPacks...), req.SpecPacks...)
	}
	opts.QueryTiming = req.Metrics
	// Trace sinks: the client's inline trace (req.Trace) and the slow
	// sampler's bounded buffer (rec.trace) share one JSONL stream.
	// Attaching either implies per-query timing, the documented cost of
	// tracing.
	var traceBuf bytes.Buffer
	var sink io.Writer
	if req.Trace {
		sink = &traceBuf
	}
	if rec.trace != nil {
		if sink != nil {
			sink = io.MultiWriter(sink, rec.trace)
		} else {
			sink = rec.trace
		}
	}
	if sink != nil {
		opts.TraceWriter = sink
	}
	a.SetOptions(opts)

	files := req.Files
	if req.Corpus {
		files = s.corpus
	}
	if err := a.AddSources(files); err != nil {
		return nil, http.StatusBadRequest, err
	}
	res, err := a.RunContext(ctx)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	format := req.Format
	if format == "" {
		format = "text"
	}
	var report bytes.Buffer
	if err := res.WriteReports(&report, format, req.Verbose); err != nil {
		return nil, http.StatusBadRequest, err
	}
	resp := &AnalyzeResponse{
		Report:        report.String(),
		Bugs:          len(res.Bugs),
		FuncsTotal:    res.FuncsTotal,
		FuncsAnalyzed: res.FuncsAnalyzed,
		Paths:         res.PathsEnumerated,
		Degraded:      res.Degraded(),
		Trace:         traceBuf.String(),
	}
	timings := res.PhaseTimings()
	for _, name := range accessPhases {
		for _, t := range timings {
			if t.Phase == name {
				resp.Phases = append(resp.Phases, PhaseMS{
					Phase: name,
					Count: t.Count,
					MS:    float64(t.Total.Microseconds()) / 1000,
				})
			}
		}
	}
	for _, d := range res.Diagnostics {
		resp.Diagnostics = append(resp.Diagnostics, Diag{Function: d.Function, Kind: d.Kind, Cause: d.Cause})
	}
	rec.phases = append(rec.phases[:0], timings...)
	rec.storeHit = res.MetricValue("store_hits")
	rec.storeMiss = res.MetricValue("store_misses")
	rec.lowered = res.MetricValue("funcs_lowered")
	rec.degraded = res.Degraded()
	rec.diags = diagKinds(rec.diags[:0], res.Diagnostics)
	for _, k := range rec.diags {
		if k == "panic" {
			rec.panicked = true
		}
	}
	if req.Metrics {
		var mbuf bytes.Buffer
		if err := res.WriteMetrics(&mbuf, "json"); err == nil {
			resp.Metrics = json.RawMessage(mbuf.Bytes())
		}
	}
	if ctx.Err() != nil {
		resp.Error = fmt.Sprintf("deadline exceeded (%v); results are partial", ctx.Err())
		return resp, http.StatusGatewayTimeout, nil
	}
	return resp, http.StatusOK, nil
}

// diagKinds appends the distinct diagnostic kinds, sorted, onto dst.
func diagKinds(dst []string, diags []rid.Diagnostic) []string {
	for _, d := range diags {
		seen := false
		for _, k := range dst {
			if k == d.Kind {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, d.Kind)
		}
	}
	sort.Strings(dst)
	return dst
}

// requestContext derives the per-request deadline: the server cap, or the
// client's deadline_ms when sooner.
func (s *Server) requestContext(parent context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if deadlineMS > 0 {
		if c := time.Duration(deadlineMS) * time.Millisecond; c < d {
			d = c
		}
	}
	return context.WithTimeout(parent, d)
}

// resolveSpecs maps a request's spec fields onto a specification set.
// Extra packs are validated here (rejected before admission) but merged
// later via Options.SpecPacks, so conflicts surface with the same
// wording as the CLI.
func (s *Server) resolveSpecs(name string, packs []string, src string) (rid.Specs, error) {
	specs := s.cfg.Specs
	if name != "" {
		var err error
		if specs, err = rid.SpecPack(name); err != nil {
			names := rid.SpecPackNames()
			return rid.Specs{}, fmt.Errorf("unknown spec %q (want %s or %s)",
				name, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
		}
	}
	for _, p := range packs {
		if _, err := rid.SpecPack(p); err != nil {
			return rid.Specs{}, err
		}
	}
	if src != "" {
		var err error
		specs, err = specs.Parse("request spec_src", src)
		if err != nil {
			return rid.Specs{}, fmt.Errorf("spec_src: %v", err)
		}
	}
	return specs, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is client's problem
}

// ---------------------------------------------------------------------------
// GET /v1/explain/{fn}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	fn := r.PathValue("fn")
	if s.corpus == nil {
		errorJSON(w, http.StatusNotFound, "no resident corpus: the server was started without -dir")
		return
	}
	if s.base.FunctionCFG(fn) == "" {
		errorJSON(w, http.StatusNotFound, "function %q not defined in the resident corpus", fn)
		return
	}
	if !s.admit(w, r) {
		return
	}
	ctx, cancel := s.requestContext(r.Context(), 0)
	defer cancel()
	res, err := s.explainResult(ctx)
	if err != nil {
		if ctx.Err() != nil {
			errorJSON(w, http.StatusGatewayTimeout, "%v", err)
			return
		}
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	filtered := res.FilterFunctions(fn)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(filtered.Bugs) == 0 {
		fmt.Fprintln(w, "no inconsistent path pairs found")
		return
	}
	filtered.WriteExplain(w) //nolint:errcheck // client gone is client's problem
}

// explainResult runs the provenance analysis over the resident corpus
// once and keeps it; a run cut short by ctx is not kept, so a later
// request with more budget retries.
func (s *Server) explainResult(ctx context.Context) (*rid.Result, error) {
	s.explainMu.Lock()
	defer s.explainMu.Unlock()
	if s.explainRes != nil {
		return s.explainRes, nil
	}
	a := s.base.NewRequestChild()
	opts := s.cfg.Options
	opts.Provenance = true
	a.SetOptions(opts)
	if err := a.AddSources(s.corpus); err != nil {
		return nil, err
	}
	res, err := a.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("provenance run exceeded the deadline; retry with more budget")
	}
	s.explainRes = res
	return res, nil
}

// ---------------------------------------------------------------------------
// GET /v1/summary/{digest}

// SummaryResponse is the GET /v1/summary/{digest} reply: the stored
// analysis outcome published under one content digest.
type SummaryResponse struct {
	Fn      string `json:"fn"`
	Digest  string `json:"digest"`
	Summary string `json:"summary"`
	Paths   int    `json:"paths"`
	Reports int    `json:"reports"`
	Diags   []Diag `json:"diags,omitempty"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	if s.lookup == nil {
		errorJSON(w, http.StatusNotFound, "no persistent store: the server was started without -cache-dir or -cache-url")
		return
	}
	raw, err := hex.DecodeString(r.PathValue("digest"))
	if err != nil || len(raw) != sha256.Size {
		errorJSON(w, http.StatusBadRequest, "digest must be %d hex digits", sha256.Size*2)
		return
	}
	var d store.Digest
	copy(d[:], raw)
	// The entry is rendered and dropped within the request, so it decodes
	// into a table of its own.
	e, err := s.lookup.LookupDigest(sym.NewTable(), d)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if e == nil {
		errorJSON(w, http.StatusNotFound, "no entry for digest %s", d)
		return
	}
	resp := &SummaryResponse{
		Fn:      e.Fn,
		Digest:  d.String(),
		Summary: e.Summary.String(),
		Paths:   e.Paths,
		Reports: len(e.Reports),
	}
	for _, dg := range e.Diags {
		resp.Diags = append(resp.Diags, Diag{Function: e.Fn, Kind: dg.Kind, Cause: dg.Cause})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------------
// GET /healthz

// Health is the GET /healthz reply: liveness plus the admission gauges
// and counters CI smoke checks assert on (goroutine stability across a
// load run, zero stuck inflight after drain). New fields are appended
// and no field is renamed; a field is removed only together with the
// mechanism it reports. The full schema is documented in DESIGN.md §10.
// Served (analyze requests answered 200), Rejected (429s) and
// DeadlineExceeded (504s) are read from the route×status matrix behind
// rid_serve_requests_total, never counted a second time.
type Health struct {
	Spec             string `json:"spec"`
	CorpusFuncs      int    `json:"corpus_funcs"`
	Inflight         int    `json:"inflight"`
	MaxInflight      int    `json:"max_inflight"`
	Queued           int64  `json:"queued"`
	QueueDepth       int    `json:"queue_depth"`
	Served           int64  `json:"served"`
	Rejected         int64  `json:"rejected"`
	DeadlineExceeded int64  `json:"deadline_exceeded"`
	Goroutines       int    `json:"goroutines"`
	StoreHits        int64  `json:"store_hits"`
	StoreMisses      int64  `json:"store_misses"`
	SlowTraces       int64  `json:"slow_traces"`
	// Fleet-cache tier (-cache-url). RemoteState is "" without a remote,
	// else the circuit-breaker state: "closed" (healthy), "open"
	// (degraded to local, probe pending) or "probing".
	RemoteHits      int64  `json:"remote_hits"`
	RemoteMisses    int64  `json:"remote_misses"`
	RemoteErrors    int64  `json:"remote_errors"`
	RemoteIntegrity int64  `json:"remote_integrity_errors"`
	RemoteState     string `json:"remote_state"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	remoteState := ""
	if s.cfg.Options.CacheURL != "" {
		remoteState = remote.CircuitState(s.cfg.Options.CacheURL)
	}
	writeJSON(w, http.StatusOK, Health{
		Spec:             s.cfg.SpecName,
		CorpusFuncs:      s.base.NumFunctions(),
		Inflight:         s.gate.Inflight(),
		MaxInflight:      s.cfg.MaxInflight,
		Queued:           s.gate.Queued(),
		QueueDepth:       s.cfg.QueueDepth,
		Served:           s.metrics.requests[routeAnalyze][statusIdx(http.StatusOK)].Load(),
		Rejected:         s.metrics.answered(http.StatusTooManyRequests),
		DeadlineExceeded: s.metrics.answered(http.StatusGatewayTimeout),
		Goroutines:       runtime.NumGoroutine(),
		StoreHits:        s.base.LiveMetricValue("store_hits"),
		StoreMisses:      s.base.LiveMetricValue("store_misses"),
		SlowTraces:       s.metrics.slowTraces.Load(),
		RemoteHits:       s.base.LiveMetricValue("remote_hits"),
		RemoteMisses:     s.base.LiveMetricValue("remote_misses"),
		RemoteErrors:     s.base.LiveMetricValue("remote_errors"),
		RemoteIntegrity:  s.base.LiveMetricValue("remote_integrity_errors"),
		RemoteState:      remoteState,
	})
}
