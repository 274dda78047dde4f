package remote_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/remote"
	"repro/internal/store/storetest"
	"repro/internal/sym"
)

// startServer runs a store server on a fresh directory and loopback port,
// torn down with the test.
func startServer(t *testing.T, cfg remote.ServerConfig) (dir, url string) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	srv, err := remote.NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // teardown
	})
	return cfg.Dir, "http://" + addr
}

// newTestClient builds a client with test-speed retry/backoff tuning. The
// breaker threshold is high by default so fault tests observe each
// failure directly instead of tripping the circuit; breaker behavior has
// its own test.
func newTestClient(t *testing.T, cfg remote.Config) (*remote.Client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if cfg.Obs == nil {
		cfg.Obs = obs.New(nil, reg)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.FailThreshold == 0 {
		cfg.FailThreshold = 1000
	}
	remote.ResetCircuit(cfg.URL)
	c, err := remote.NewClient(cfg)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c, reg
}

// TestRemoteClientConformance drives the fleet-store client through the
// same conformance battery as the local store. The server refuses to
// serve what fails validation, so corrupt entries surface as misses —
// still never as wrong entries.
func TestRemoteClientConformance(t *testing.T) {
	dir, url := startServer(t, remote.ServerConfig{})
	c, _ := newTestClient(t, remote.Config{URL: url})
	storetest.Conform(t, storetest.Target{Backend: c, Dir: dir, LoadErrorsAreMisses: true})
}

// TestRemoteClientConformanceOverProxy re-runs the battery with a
// FlakyProxy in the middle running an empty fault script: the proxy must
// be semantically transparent, or its fault tests prove nothing.
func TestRemoteClientConformanceOverProxy(t *testing.T) {
	dir, url := startServer(t, remote.ServerConfig{})
	p := storetest.NewFlakyProxy(t, url)
	c, _ := newTestClient(t, remote.Config{URL: p.URL()})
	storetest.Conform(t, storetest.Target{Backend: c, Dir: dir, LoadErrorsAreMisses: true})
	if p.Served() == 0 {
		t.Fatal("proxy served no requests; the battery bypassed it")
	}
}

// TestFlakyProxySingleFaultRetried: one transport-level fault per
// operation is absorbed by the client's single retry — the caller never
// sees it.
func TestFlakyProxySingleFaultRetried(t *testing.T) {
	_, url := startServer(t, remote.ServerConfig{})
	p := storetest.NewFlakyProxy(t, url)
	p.StallFor = 300 * time.Millisecond
	c, _ := newTestClient(t, remote.Config{URL: p.URL(), Timeout: 100 * time.Millisecond})

	fn := "flaky_retry"
	d := seedEntry(t, c, fn)
	for _, tc := range []struct {
		name  string
		fault storetest.Fault
	}{
		{"err500", storetest.Err500},
		{"drop-conn", storetest.Drop},
		{"truncate-body", storetest.TruncateBody},
		{"stall-past-deadline", storetest.Stall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p.Inject(tc.fault)
			e, err := c.Load(sym.NewTable(), fn, d)
			if err != nil {
				t.Fatalf("Load with one %s fault: %v (retry should absorb it)", tc.name, err)
			}
			if e == nil || e.Fn != fn {
				t.Fatalf("Load with one %s fault: got %+v, want hit for %s", tc.name, e, fn)
			}
		})
	}
}

// TestFlakyProxyDoubleFaultSurfaces: two consecutive faults defeat the
// retry, and the strict client reports an honest error — nil entry,
// non-nil err, no panic, no fabricated data.
func TestFlakyProxyDoubleFaultSurfaces(t *testing.T) {
	_, url := startServer(t, remote.ServerConfig{})
	p := storetest.NewFlakyProxy(t, url)
	p.StallFor = 300 * time.Millisecond
	c, _ := newTestClient(t, remote.Config{URL: p.URL(), Timeout: 100 * time.Millisecond})

	fn := "flaky_double"
	d := seedEntry(t, c, fn)
	for _, tc := range []struct {
		name  string
		fault storetest.Fault
	}{
		{"err500", storetest.Err500},
		{"drop-conn", storetest.Drop},
		{"truncate-body", storetest.TruncateBody},
		{"stall-past-deadline", storetest.Stall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p.Inject(tc.fault, tc.fault)
			e, err := c.Load(sym.NewTable(), fn, d)
			if err == nil {
				t.Fatalf("Load with two %s faults succeeded; the strict client must surface the failure", tc.name)
			}
			if e != nil {
				t.Fatalf("Load with two %s faults returned an entry alongside the error", tc.name)
			}
		})
	}
	// The script is drained: the store is immediately usable again.
	e, err := c.Load(sym.NewTable(), fn, d)
	if err != nil || e == nil {
		t.Fatalf("Load after faults drained = (%v, %v), want hit", e, err)
	}
}

// TestFlakyProxyCorruptBodyIsIntegrityError: a 200 response whose body
// was corrupted in flight is not retried (the exchange succeeded) but is
// caught by client-side validation — an integrity error, never an entry.
func TestFlakyProxyCorruptBodyIsIntegrityError(t *testing.T) {
	_, url := startServer(t, remote.ServerConfig{})
	p := storetest.NewFlakyProxy(t, url)
	c, reg := newTestClient(t, remote.Config{URL: p.URL()})

	fn := "flaky_corrupt"
	d := seedEntry(t, c, fn)
	p.Inject(storetest.CorruptBody)
	e, err := c.Load(sym.NewTable(), fn, d)
	if err == nil || e != nil {
		t.Fatalf("Load of corrupted-in-flight entry = (%v, %v), want integrity error", e, err)
	}
	if n := reg.Counter(obs.MRemoteIntegrity); n == 0 {
		t.Fatal("remote_integrity_errors counter not incremented")
	}
	// Clean wire, same entry: the data on the server was never damaged.
	e, err = c.Load(sym.NewTable(), fn, d)
	if err != nil || e == nil {
		t.Fatalf("Load after corruption cleared = (%v, %v), want hit", e, err)
	}
}

// TestCircuitBreakerOpensAndProbes: consecutive failures open the per-URL
// circuit (refusals cost no network traffic), and after the probe
// interval a single successful probe closes it again.
func TestCircuitBreakerOpensAndProbes(t *testing.T) {
	_, url := startServer(t, remote.ServerConfig{})
	p := storetest.NewFlakyProxy(t, url)
	c, _ := newTestClient(t, remote.Config{
		URL:           p.URL(),
		FailThreshold: 2,
		ProbeWait:     50 * time.Millisecond,
	})

	fn := "breaker_fn"
	d := seedEntry(t, c, fn)
	if got := remote.CircuitState(p.URL()); got != "closed" {
		t.Fatalf("initial circuit state %q, want closed", got)
	}

	// Two failed operations (each fault pair defeats one op's retry).
	p.Inject(storetest.Err500, storetest.Err500, storetest.Err500, storetest.Err500)
	for i := 0; i < 2; i++ {
		if _, err := c.Load(sym.NewTable(), fn, d); err == nil {
			t.Fatalf("Load %d should have failed", i)
		}
	}
	if got := remote.CircuitState(p.URL()); got != "open" {
		t.Fatalf("circuit state after %d failures = %q, want open", 2, got)
	}

	// Open circuit: refused without touching the wire.
	before := p.Served()
	_, err := c.Load(sym.NewTable(), fn, d)
	if !errors.Is(err, remote.ErrCircuitOpen) {
		t.Fatalf("Load with open circuit: %v, want ErrCircuitOpen", err)
	}
	if p.Served() != before {
		t.Fatal("open circuit still sent requests")
	}

	// After the probe interval one operation goes through; success closes.
	time.Sleep(70 * time.Millisecond)
	e, err := c.Load(sym.NewTable(), fn, d)
	if err != nil || e == nil {
		t.Fatalf("probe Load = (%v, %v), want hit", e, err)
	}
	if got := remote.CircuitState(p.URL()); got != "closed" {
		t.Fatalf("circuit state after successful probe = %q, want closed", got)
	}
}

// seedEntry publishes a representative entry for fn through c and returns
// its digest.
func seedEntry(t *testing.T, c *remote.Client, fn string) store.Digest {
	t.Helper()
	var d store.Digest
	copy(d[:], fn)
	if err := c.Save(fn, d, storetest.Entry(fn)); err != nil {
		t.Fatalf("seeding %s: %v", fn, err)
	}
	return d
}
