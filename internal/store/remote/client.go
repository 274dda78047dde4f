// Package remote makes the persistent summary store fleet-shared: a
// stdlib-only HTTP server (`rid storeserve`) exposes one store directory
// over the wire, and a client backend lets every analysis process — CLI
// runs, benchmarks, `rid serve` replicas — read and publish entries
// through it. Layered behind the local store (see Tiered) it is a warm
// cache for work any machine in the fleet already did.
//
// The wire protocol (DESIGN.md §13) moves raw entry bytes — the same
// checksummed RIDSUM header + JSON payload the local store writes to
// disk — so both ends validate with store.ValidateRaw and a corrupt or
// mislabeled response can never be mistaken for a summary:
//
//	GET  /v1/entry/{name}?d={digest}  fetch one entry by name, expected digest
//	PUT  /v1/entry/{name}             publish one entry (validated server-side)
//	POST /v1/has                      batch existence probe (warm-up priming)
//	GET  /v1/digest/{digest}          fetch by content digest (any name)
//	GET  /healthz                     store gauges, admission gauges
//	GET  /metrics                     Prometheus text exposition
//
// The failure discipline is non-negotiable: a dead, slow, or corrupt
// remote degrades the run to local analysis — never a wrong answer,
// never a hang. Every operation runs under a per-op deadline with one
// retry after a short backoff; consecutive failures open a per-URL
// circuit breaker that refuses further attempts until a probe succeeds.
package remote

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
)

// Config tunes a fleet-store client. Only URL is required.
type Config struct {
	// URL is the store server's base address (http:// or https://).
	URL string
	// Timeout caps each HTTP attempt, connect through body (default 2s).
	Timeout time.Duration
	// RetryBackoff is the pause before the single retry (default 100ms).
	RetryBackoff time.Duration
	// FailThreshold is how many consecutive failures open the circuit
	// (default 3).
	FailThreshold int
	// ProbeWait is how long an open circuit refuses before letting one
	// probe through (default 2s).
	ProbeWait time.Duration
	// Fingerprint is the hashed options fingerprint entries are encoded
	// under when the client is used as a full Backend (Save). Lookup-only
	// and tiered use may leave it zero: raw bytes carry their own.
	Fingerprint store.Digest
	// Obs receives remote_* counters; nil observes nothing.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeWait <= 0 {
		c.ProbeWait = 2 * time.Second
	}
	return c
}

// Client talks to one store server. It implements store.Backend with
// strict semantics — a remote failure is returned as an error — so the
// conformance suite can drive it directly; production callers wrap it in
// Tiered, which owns the degrade-to-local policy. Safe for concurrent
// use.
type Client struct {
	cfg  Config
	base string
	hc   *http.Client
	br   *breaker
	o    *obs.Obs
}

var _ store.Backend = (*Client)(nil)

// NewClient validates cfg.URL and returns a client for it. No connection
// is attempted: a store that is down at startup is the same degraded
// state as one that dies mid-run.
func NewClient(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	u, err := url.Parse(cfg.URL)
	if err != nil {
		return nil, fmt.Errorf("cache url: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("cache url %q: want http(s)://host[:port]", cfg.URL)
	}
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(cfg.URL, "/"),
		hc:   &http.Client{Timeout: cfg.Timeout},
		br:   forURL(cfg.URL, cfg.FailThreshold, cfg.ProbeWait),
		o:    cfg.Obs,
	}, nil
}

// URL returns the configured base address.
func (c *Client) URL() string { return c.cfg.URL }

// call performs one HTTP exchange under the failure discipline: circuit
// check, per-attempt deadline, one retry with backoff on transport
// errors and 5xx/429. Any 2xx or 404 counts as breaker success (the
// server answered); everything else as failure.
func (c *Client) call(method, path string, body []byte) (status int, data []byte, err error) {
	if !c.br.allow() {
		return 0, nil, ErrCircuitOpen
	}
	status, data, err = c.once(method, path, body)
	if err != nil {
		time.Sleep(c.cfg.RetryBackoff)
		status, data, err = c.once(method, path, body)
	}
	if err != nil {
		c.br.failure()
		c.o.Count(obs.MRemoteErrors, 1)
		return 0, nil, err
	}
	c.br.success()
	return status, data, nil
}

// once is a single attempt. Statuses outside {2xx, 404} are errors (the
// body's first line is folded into the message for diagnosability).
func (c *Client) once(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("fleet store %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil {
		return 0, nil, fmt.Errorf("fleet store %s %s: read body: %w", method, path, err)
	}
	if len(data) > maxEntryBytes {
		return 0, nil, fmt.Errorf("fleet store %s %s: body exceeds %d bytes", method, path, maxEntryBytes)
	}
	ok := (resp.StatusCode >= 200 && resp.StatusCode < 300) || resp.StatusCode == http.StatusNotFound
	if !ok {
		line, _, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		return 0, nil, fmt.Errorf("fleet store %s %s: status %d: %s", method, path, resp.StatusCode, line)
	}
	return resp.StatusCode, data, nil
}

// GetRaw fetches fn's entry bytes for the expected digest. (nil, nil) is
// a miss. Returned bytes are fully validated — header, checksum, and
// that they are really fn's entry under d; anything else is an integrity
// error, counted and returned.
func (c *Client) GetRaw(fn string, d store.Digest) ([]byte, error) {
	name := store.EntryName(fn)
	status, data, err := c.call(http.MethodGet, "/v1/entry/"+name+"?d="+d.String(), nil)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, nil
	}
	info, err := store.ValidateRaw(data)
	if err != nil {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store entry %s: %w", name, err)
	}
	if info.Fn != fn || info.Digest != d {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store entry %s: response is for %q digest %s, want %q digest %s",
			name, info.Fn, info.Digest.String()[:12], fn, d.String()[:12])
	}
	return data, nil
}

// PutRaw publishes raw entry bytes (validated client-side first — never
// ship garbage, even to a server that would reject it).
func (c *Client) PutRaw(fn string, data []byte) error {
	info, err := store.ValidateRaw(data)
	if err != nil {
		return fmt.Errorf("fleet store put: %w", err)
	}
	if info.Fn != fn {
		return fmt.Errorf("fleet store put: bytes are for %q, want %q", info.Fn, fn)
	}
	status, _, err := c.call(http.MethodPut, "/v1/entry/"+store.EntryName(fn), data)
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		return fmt.Errorf("fleet store put %s: unexpected 404", store.EntryName(fn))
	}
	c.o.Count(obs.MRemotePuts, 1)
	return nil
}

// HasBatch reports which of the named entries the server holds, in input
// order. One round trip for the whole batch — the priming probe that
// lets a tiered backend skip per-miss GETs for entries the fleet has
// never seen.
func (c *Client) HasBatch(names []string) ([]bool, error) {
	body, err := json.Marshal(hasRequest{Names: names})
	if err != nil {
		return nil, err
	}
	status, data, err := c.call(http.MethodPost, "/v1/has", body)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, fmt.Errorf("fleet store has-batch: unexpected 404")
	}
	var resp hasResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store has-batch: bad response: %w", err)
	}
	if len(resp.Has) != len(names) {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store has-batch: %d answers for %d names", len(resp.Has), len(names))
	}
	return resp.Has, nil
}

// GetDigestRaw fetches the raw bytes of any entry published under
// content digest d. (nil, nil) when the server has none.
func (c *Client) GetDigestRaw(d store.Digest) ([]byte, error) {
	status, data, err := c.call(http.MethodGet, "/v1/digest/"+d.String(), nil)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, nil
	}
	info, err := store.ValidateRaw(data)
	if err != nil {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store digest %s: %w", d.String()[:12], err)
	}
	if info.Digest != d {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store digest %s: response carries digest %s",
			d.String()[:12], info.Digest.String()[:12])
	}
	return data, nil
}

// Ping checks the server is answering (GET /healthz).
func (c *Client) Ping() error {
	status, _, err := c.call(http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		return fmt.Errorf("fleet store ping: no /healthz")
	}
	return nil
}

// ---------------------------------------------------------------------------
// store.Backend (strict: remote failures are errors; Tiered is lenient)

// Load implements store.Backend: a validated remote entry, (nil, nil) on
// miss, or an error for remote failure or an untrustworthy response.
func (c *Client) Load(t *sym.Table, fn string, d store.Digest) (*store.Entry, error) {
	data, err := c.GetRaw(fn, d)
	if err != nil || data == nil {
		if err == nil {
			c.o.Count(obs.MRemoteMisses, 1)
		}
		return nil, err
	}
	e, err := store.ParseEntry(t, data)
	if err != nil {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store entry %s: %w", store.EntryName(fn), err)
	}
	c.o.Count(obs.MRemoteHits, 1)
	return e, nil
}

// Save implements store.Backend, encoding under the configured
// fingerprint. Production write paths ship raw local bytes via
// Tiered/PutRaw instead; this exists so the client can be driven by the
// same conformance suite as the local store.
func (c *Client) Save(fn string, d store.Digest, e *store.Entry) error {
	data, err := store.EncodeEntry(e, c.cfg.Fingerprint, d)
	if err != nil {
		return fmt.Errorf("fleet store save %s: %w", fn, err)
	}
	return c.PutRaw(fn, data)
}

// LookupDigest implements store.Backend over GET /v1/digest.
func (c *Client) LookupDigest(t *sym.Table, d store.Digest) (*store.Entry, error) {
	data, err := c.GetDigestRaw(d)
	if err != nil || data == nil {
		return nil, err
	}
	e, err := store.ParseEntry(t, data)
	if err != nil {
		c.o.Count(obs.MRemoteIntegrity, 1)
		return nil, fmt.Errorf("fleet store digest %s: %w", d.String()[:12], err)
	}
	return e, nil
}

// parseDigestParam decodes a 64-hex-digit digest (the {digest} path
// element and ?d= query parameter).
func parseDigestParam(s string) (store.Digest, error) {
	var d store.Digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(d) {
		return d, fmt.Errorf("bad digest %q", s)
	}
	copy(d[:], b)
	return d, nil
}
