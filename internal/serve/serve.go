// Package serve implements the analysis daemon behind `rid serve`: a
// long-lived HTTP/JSON service that keeps the analyzer's hot state —
// parsed IR for a resident corpus, the expression interner, the solver
// cache, and the persistent summary store — resident across requests,
// instead of paying cold-start per CLI invocation.
//
// The API surface (all JSON unless noted):
//
//	POST /v1/analyze          analyze sources in the request body, or the
//	                          resident corpus; the "report" field is
//	                          byte-identical to `rid` stdout
//	GET  /v1/explain/{fn}     provenance derivation for one function of
//	                          the resident corpus (text/plain, the
//	                          `rid explain` format)
//	GET  /v1/summary/{digest} look a summary up in the persistent store
//	                          by content digest
//	GET  /healthz             admission gauges, request counters,
//	                          goroutine count (the drain tests' leak check)
//	GET  /metrics             Prometheus text exposition v0.0.4:
//	                          serve-level series (requests by route and
//	                          status, queue wait, durations, slow traces)
//	                          plus the shared analysis registry
//	                          (counters, per-phase histograms)
//	GET  /debug/...           net/http/pprof + /debug/vars with the live
//	                          shared metrics registry
//
// Two mechanisms keep the daemon well-behaved under heavy traffic, both
// reusing the context/budget plumbing the pipeline already has:
//
//   - Admission control: at most MaxInflight analyses run concurrently;
//     up to QueueDepth more wait at most QueueWait for a slot, and
//     everything beyond that is rejected immediately with 429 and a
//     Retry-After header. An analysis is never started that the server
//     has no capacity to finish.
//
//   - Per-request deadlines: every request runs under a context bounded
//     by RequestTimeout (and by the client's own deadline_ms if sooner).
//     A run that exceeds it degrades exactly like `rid -deadline`: the
//     response is 504 with the partial report and the run's degradation
//     diagnostics in the body, not a severed connection.
package serve

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/store"
	"repro/internal/store/remote"
	"repro/rid"
)

// Config tunes the daemon. The zero value of every field has a usable
// default; Specs defaults to the Linux DPM specifications.
type Config struct {
	// Specs is the default specification set for requests that don't name
	// one. SpecName is its flag-style name ("linux-dpm", "python-c"),
	// echoed in /healthz.
	Specs    rid.Specs
	SpecName string
	// CorpusDir, when non-empty, is loaded at startup and kept resident:
	// requests with "corpus": true analyze it without shipping sources,
	// and /v1/explain runs against it.
	CorpusDir string
	// Options are the default analysis options for every request
	// (overridable per request where the API allows). Options.CacheDir
	// additionally enables /v1/summary lookups against the same store.
	Options rid.Options
	// MaxInflight bounds concurrently running analyses (default 2).
	MaxInflight int
	// QueueDepth bounds requests waiting for a slot (default
	// 4*MaxInflight); beyond it requests are rejected with 429.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// 429 (default 2s).
	QueueWait time.Duration
	// RequestTimeout caps every request's analysis wall-clock (default
	// 60s). Clients can only shorten it (deadline_ms), never extend it.
	RequestTimeout time.Duration
	// Log receives one line per served request; nil logs nothing.
	Log *log.Logger
	// AccessLog, when non-nil, receives one structured JSONL line per
	// HTTP request (fixed key order; see accessLogger). This is the
	// machine-readable counterpart of Log.
	AccessLog io.Writer
	// SlowTraceDir, when non-empty, enables tail-sampled trace capture:
	// every analyze request buffers its span trace in memory, and
	// requests that were slow (over SlowThreshold or the sliding-window
	// p99) or ended badly (504, panic diagnostic) flush it to
	// <dir>/<request-id>.jsonl — ready for `rid explain -trace`.
	// Buffering implies per-query timing on every analyze request, the
	// documented cost of the flag.
	SlowTraceDir string
	// SlowThreshold is the fixed slow-request trigger (default 0: only
	// the p99 and failure triggers fire).
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Specs == (rid.Specs{}) {
		c.Specs, c.SpecName = rid.LinuxDPMSpecs(), "linux-dpm"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	return c
}

// Server is one daemon instance. Create with New, expose with Handler or
// Start, stop with Shutdown.
type Server struct {
	cfg     Config
	base    *rid.Analyzer // resident corpus + shared metrics registry
	handler http.Handler  // mux behind the instrumentation middleware

	metrics serveMetrics
	access  *accessLogger // nil without Config.AccessLog
	sampler *slowSampler  // nil without Config.SlowTraceDir

	corpus map[string]string // resident sources, nil when none loaded

	gate *admit.Gate // inflight slots + bounded queue (shared admission plumbing)

	// lookup answers /v1/summary digest lookups: the local store when the
	// server has -cache-dir, layered over the fleet store when it also has
	// -cache-url (local is always consulted first; see TestSummaryLookupOrder).
	lookup store.Backend

	explainMu  sync.Mutex
	explainRes *rid.Result

	srv      *http.Server
	listener net.Listener
}

// New builds a server: the resident corpus (if any) is parsed and lowered
// once, here, and every later request reuses the warm state.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	base := rid.New(cfg.Specs)
	base.SetOptions(cfg.Options)
	s := &Server{
		cfg:  cfg,
		base: base,
	}
	s.gate = admit.New(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait, s.metrics.queueWait.Observe)
	if cfg.AccessLog != nil {
		s.access = newAccessLogger(cfg.AccessLog)
	}
	if cfg.SlowTraceDir != "" {
		if err := os.MkdirAll(cfg.SlowTraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: slow-trace dir: %w", err)
		}
		s.sampler = newSlowSampler(cfg.SlowTraceDir, cfg.SlowThreshold)
	}
	if cfg.CorpusDir != "" {
		files, err := rid.ReadSources(cfg.CorpusDir)
		if err != nil {
			return nil, fmt.Errorf("serve: load corpus: %w", err)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("serve: corpus dir %s holds no .c files", cfg.CorpusDir)
		}
		s.corpus = files
		if err := base.AddSources(files); err != nil {
			return nil, fmt.Errorf("serve: corpus: %w", err)
		}
	}
	if cfg.Options.CacheDir != "" || cfg.Options.CacheURL != "" {
		// Digest-lookup backend for /v1/summary. The zero fingerprint is
		// fine: digest lookups don't consult it (see store.LookupDigest).
		// With both tiers configured, lookups try the local store first and
		// only then the fleet store — replicas answer from the shared cache
		// for digests they have never computed locally.
		var local *store.Store
		if cfg.Options.CacheDir != "" {
			st, err := store.Open(cfg.Options.CacheDir, store.Fingerprint{}, nil)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			local = st
			s.lookup = st
		}
		if cfg.Options.CacheURL != "" {
			client, err := remote.NewClient(remote.Config{URL: cfg.Options.CacheURL})
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			if local != nil {
				s.lookup = remote.NewTiered(local, client)
			} else {
				s.lookup = client
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/explain/{fn}", s.handleExplain)
	mux.HandleFunc("GET /v1/summary/{digest}", s.handleSummary)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("/debug/", base.DebugHandler())
	s.handler = s.instrument(mux)
	return s, nil
}

// Handler returns the daemon's full HTTP surface (for tests and for
// embedding; Start serves the same handler). Every request passes
// through the instrumentation middleware: request-ID assignment, the
// route×status counters behind /metrics, access logging and slow-trace
// sampling when configured.
func (s *Server) Handler() http.Handler { return s.handler }

// Start listens on addr (port 0 picks a free one) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.listener = ln
	s.srv = &http.Server{Handler: s.handler}
	go s.srv.Serve(ln) //nolint:errcheck // Shutdown returns ErrServerClosed here
	return ln.Addr().String(), nil
}

// Shutdown stops accepting connections and waits for in-flight requests
// to drain, up to ctx's deadline; it then severs whatever remains.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close() //nolint:errcheck // the Shutdown error is the one to report
		return err
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}
