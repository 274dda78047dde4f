package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/obs/promtext"
	"repro/internal/store"
)

// ServerConfig tunes `rid storeserve`. Only Dir is required.
type ServerConfig struct {
	// Dir is the store directory to serve (created if absent). It is an
	// ordinary summary store: a server can be pointed at a directory a
	// local run already warmed, and vice versa.
	Dir string
	// MaxInflight bounds concurrently served store operations (default 32
	// — operations are short I/O, not analyses).
	MaxInflight int
	// QueueDepth bounds operations waiting for a slot (default
	// 4*MaxInflight); beyond it 429.
	QueueDepth int
	// QueueWait bounds how long a queued operation waits (default 1s).
	QueueWait time.Duration
	// FailEvery, when positive, makes every Nth /v1 request fail with 500
	// before touching the store — deterministic fault injection for
	// degradation drills (CI runs a ridbench against a storeserve
	// -fail-every 3 and asserts a clean exit with cache-remote
	// diagnostics).
	FailEvery int
	// Log receives one line per request; nil logs nothing.
	Log *log.Logger
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	return c
}

// Server is one fleet store server. Create with NewServer, expose with
// Handler or Start, stop with Shutdown.
type Server struct {
	cfg  ServerConfig
	st   *store.Store
	gate *admit.Gate
	mux  *http.ServeMux

	reqs      atomic.Int64 // all /v1 requests admitted (fail-every counts off this)
	gets      atomic.Int64 // entry/digest fetches answered 200
	misses    atomic.Int64 // fetches answered 404
	puts      atomic.Int64 // entries accepted
	rejected  atomic.Int64 // invalid puts refused (400)
	corrupt   atomic.Int64 // on-disk entries that failed validation when served
	injected  atomic.Int64 // fail-every 500s served
	hasProbes atomic.Int64 // has-batch names answered

	srv      *http.Server
	listener net.Listener
}

// NewServer opens (or creates) the store directory and builds the
// server.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("storeserve: store directory required")
	}
	// Zero fingerprint: the server never encodes entries, it moves raw
	// bytes that carry their own fingerprint in the validated header.
	st, err := store.Open(cfg.Dir, store.Fingerprint{}, nil)
	if err != nil {
		return nil, fmt.Errorf("storeserve: %w", err)
	}
	s := &Server{cfg: cfg, st: st}
	s.gate = admit.New(cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/entry/{name}", s.guard(s.handleGet))
	mux.HandleFunc("PUT /v1/entry/{name}", s.guard(s.handlePut))
	mux.HandleFunc("POST /v1/has", s.guard(s.handleHas))
	mux.HandleFunc("GET /v1/digest/{digest}", s.guard(s.handleDigest))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the server's full HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (port 0 picks a free one) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("storeserve: listen %s: %w", addr, err)
	}
	s.listener = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln) //nolint:errcheck // Shutdown returns ErrServerClosed here
	return ln.Addr().String(), nil
}

// Shutdown stops accepting connections and drains in-flight requests up
// to ctx's deadline.
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

// guard wraps a /v1 handler with admission control and the fail-every
// fault injector. Injection happens after admission and before the store
// is touched, so an injected failure is indistinguishable on the wire
// from a genuine server-side error — which is the point.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, _, err := s.gate.Admit(r.Context())
		if err != nil {
			w.Header().Set("Retry-After", fmt.Sprint(s.gate.RetryAfter()))
			http.Error(w, "storeserve: overloaded", http.StatusTooManyRequests)
			return
		}
		defer release()
		n := s.reqs.Add(1)
		if s.cfg.FailEvery > 0 && n%int64(s.cfg.FailEvery) == 0 {
			s.injected.Add(1)
			s.logf("storeserve: injecting failure on request %d", n)
			http.Error(w, "storeserve: injected failure", http.StatusInternalServerError)
			return
		}
		h(w, r)
	}
}

// handleGet serves one entry's raw bytes by name. The served bytes are
// validated first — a corrupt on-disk file is reported as 404 (plus a
// corrupt-entry counter), never shipped: the client would reject it
// anyway, but an integrity error on the client marks the *server*
// untrustworthy, and a single bad file should not do that.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		http.Error(w, "bad entry name", http.StatusBadRequest)
		return
	}
	data, err := os.ReadFile(store.EntryPath(s.cfg.Dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		http.Error(w, "read entry: "+err.Error(), http.StatusInternalServerError)
		return
	}
	info, err := store.ValidateRaw(data)
	if err != nil {
		s.corrupt.Add(1)
		s.logf("storeserve: corrupt entry %s: %v", name, err)
		http.Error(w, "no entry", http.StatusNotFound)
		return
	}
	if want := r.URL.Query().Get("d"); want != "" {
		d, err := parseDigestParam(want)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if info.Digest != d {
			// Ordinary staleness: the fleet holds an entry for this
			// function computed from different content or options.
			s.misses.Add(1)
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
	}
	s.gets.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data) //nolint:errcheck // client disconnects are its problem
}

// handlePut accepts one entry's raw bytes, validates them end to end,
// and publishes atomically. Puts are digest-addressed and idempotent:
// concurrent puts of the same content converge through the same
// temp+rename dance the local store uses.
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		http.Error(w, "bad entry name", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxEntryBytes+1))
	if err != nil {
		s.rejected.Add(1)
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(data) > maxEntryBytes {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("entry exceeds %d bytes", maxEntryBytes), http.StatusBadRequest)
		return
	}
	info, err := store.ValidateRaw(data)
	if err != nil {
		s.rejected.Add(1)
		http.Error(w, "invalid entry: "+err.Error(), http.StatusBadRequest)
		return
	}
	if store.EntryName(info.Fn) != name {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("entry is for %q, which is not named %s", info.Fn, name), http.StatusBadRequest)
		return
	}
	if err := s.st.PutRaw(info.Fn, data); err != nil {
		http.Error(w, "store entry: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.puts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleHas answers a batch existence probe with one stat per name — no
// validation, no reads: a false positive just costs the client one GET
// that validates for real.
func (s *Server) handleHas(w http.ResponseWriter, r *http.Request) {
	var req hasRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxEntryBytes))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Names) > maxHasBatch {
		http.Error(w, fmt.Sprintf("batch exceeds %d names", maxHasBatch), http.StatusBadRequest)
		return
	}
	resp := hasResponse{Has: make([]bool, len(req.Names))}
	for i, name := range req.Names {
		if !validName(name) {
			continue
		}
		_, err := os.Stat(store.EntryPath(s.cfg.Dir, name))
		resp.Has[i] = err == nil
	}
	s.hasProbes.Add(int64(len(req.Names)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // client disconnects are its problem
}

// handleDigest serves the raw bytes of any entry published under the
// given content digest — the fleet-side half of `rid serve`'s
// /v1/summary lookups.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	d, err := parseDigestParam(r.PathValue("digest"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	found, err := s.st.RawDigest(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if found == nil {
		s.misses.Add(1)
		http.Error(w, "no entry", http.StatusNotFound)
		return
	}
	s.gets.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(found) //nolint:errcheck // client disconnects are its problem
}

// storeHealth is the GET /healthz body. The schema is append-only.
type storeHealth struct {
	Status    string `json:"status"`
	Dir       string `json:"dir"`
	Entries   int    `json:"entries"`
	Inflight  int    `json:"inflight"`
	Queued    int64  `json:"queued"`
	Rejected  int64  `json:"rejected_total"`
	Gets      int64  `json:"gets_total"`
	Misses    int64  `json:"misses_total"`
	Puts      int64  `json:"puts_total"`
	BadPuts   int64  `json:"bad_puts_total"`
	Corrupt   int64  `json:"corrupt_entries_total"`
	Injected  int64  `json:"injected_failures_total"`
	HasProbes int64  `json:"has_probes_total"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	n := 0
	filepath.WalkDir(filepath.Join(s.cfg.Dir, "entries"), func(path string, de os.DirEntry, err error) error { //nolint:errcheck // count what's countable
		if err == nil && !de.IsDir() && strings.HasSuffix(path, ".sum") {
			n++
		}
		return nil
	})
	h := storeHealth{
		Status:    "ok",
		Dir:       s.cfg.Dir,
		Entries:   n,
		Inflight:  s.gate.Inflight(),
		Queued:    s.gate.Queued(),
		Rejected:  s.gate.Rejected(),
		Gets:      s.gets.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		BadPuts:   s.rejected.Load(),
		Corrupt:   s.corrupt.Load(),
		Injected:  s.injected.Load(),
		HasProbes: s.hasProbes.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h) //nolint:errcheck // client disconnects are its problem
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := promtext.NewWriter(w)
	emit := func(name, help string, v int64) {
		pw.Family(name, "counter", help)
		pw.Int(name, nil, v)
	}
	emit("rid_storeserve_gets_total", "entry and digest fetches answered 200", s.gets.Load())
	emit("rid_storeserve_misses_total", "fetches answered 404", s.misses.Load())
	emit("rid_storeserve_puts_total", "entries accepted", s.puts.Load())
	emit("rid_storeserve_bad_puts_total", "invalid puts refused", s.rejected.Load())
	emit("rid_storeserve_corrupt_entries_total", "on-disk entries that failed validation when served", s.corrupt.Load())
	emit("rid_storeserve_injected_failures_total", "fail-every 500s served", s.injected.Load())
	emit("rid_storeserve_admission_rejected_total", "operations refused with 429", s.gate.Rejected())
	emit("rid_storeserve_has_probes_total", "entry names answered by has-batch probes", s.hasProbes.Load())
	pw.Family("rid_storeserve_inflight", "gauge", "operations currently running")
	pw.Int("rid_storeserve_inflight", nil, int64(s.gate.Inflight()))
	pw.Family("rid_storeserve_queued", "gauge", "operations waiting for an inflight slot")
	pw.Int("rid_storeserve_queued", nil, s.gate.Queued())
	pw.Flush() //nolint:errcheck // client disconnects are its problem
}

// validName reports whether name is a well-formed entry name (24 hex
// digits) — everything else 400s before touching the filesystem, which
// also rules out path traversal through the {name} element.
func validName(name string) bool {
	if len(name) != 24 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
