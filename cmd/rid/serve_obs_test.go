package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/promtext"
	"repro/internal/serve"
)

// daemonLog collects a daemon subprocess's stderr.
type daemonLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon boots `rid serve` or `rid storeserve` (args[0]) from the
// built binary on a free port and returns the base URL from its startup
// line. At cleanup it sends SIGINT, and the test fails unless the daemon
// logs "shutting down" and exits 0 within 30s.
func startDaemon(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	var log daemonLog
	cmd.Stderr = &log
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", args[0], err)
	}
	done := make(chan struct{})
	var waitErr error
	go func() { waitErr = cmd.Wait(); close(done) }()
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt) //nolint:errcheck // the exit status is checked below
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			<-done
			t.Errorf("%s did not exit within 30s of SIGINT\n%s", args[0], log.String())
			return
		}
		if waitErr != nil || !strings.Contains(log.String(), "shutting down") {
			t.Errorf("%s: SIGINT must drain and exit 0, got %v\n%s", args[0], waitErr, log.String())
		}
	})

	// The startup line carries the bound address:
	//   rid: serving <what> on http://<addr> (...)
	deadline := time.After(10 * time.Second)
	for {
		if _, rest, ok := strings.Cut(log.String(), "on http://"); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				return "http://" + addr
			}
		}
		select {
		case <-done:
			t.Fatalf("%s exited before announcing its address: %v\n%s", args[0], waitErr, log.String())
		case <-deadline:
			t.Fatalf("%s never announced its address\n%s", args[0], log.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// postAnalyze sends one POST /v1/analyze to the daemon at base and
// decodes the response body whatever its status. Safe to call from any
// goroutine.
func postAnalyze(base string, req *serve.AnalyzeRequest) (*http.Response, *serve.AnalyzeResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var ar serve.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return nil, nil, fmt.Errorf("status %d: %v", resp.StatusCode, err)
	}
	return resp, &ar, nil
}

// scrapeMetrics fetches the daemon's /metrics exposition and fails the
// test unless the validating parser accepts it.
func scrapeMetrics(t *testing.T, base string) promtext.Families {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("daemon exposition rejected: %v", err)
	}
	return fams
}

// TestCLIServeObservabilityE2E drives the full operator surface of the
// built binary: access log, tail-sampled slow traces, the /metrics
// exposition, and `rid explain -trace` on a flushed trace file.
func TestCLIServeObservabilityE2E(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	accessPath := filepath.Join(dir, "access.jsonl")
	traceDir := filepath.Join(dir, "traces")

	// 20ms separates the two requests decisively: the single-function
	// fast request analyzes in ~1ms, the scale-2 corpus in ~100ms.
	base := startDaemon(t, bin, "serve", "-quiet",
		"-access-log", accessPath,
		"-slow-trace-dir", traceDir,
		"-slow-threshold", "20ms",
		"-request-timeout", "2m",
	)

	fastResp, fastAR, err := postAnalyze(base, &serve.AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	if err != nil {
		t.Fatal(err)
	}
	if fastResp.StatusCode != http.StatusOK || fastAR.Bugs != 1 {
		t.Fatalf("fast request: %d %+v", fastResp.StatusCode, fastAR)
	}
	slowResp, slowAR, err := postAnalyze(base, &serve.AnalyzeRequest{Files: experiments.ServeCorpus(2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if slowResp.StatusCode != http.StatusOK {
		t.Fatalf("slow request: %d %+v", slowResp.StatusCode, slowAR)
	}
	slowID := slowResp.Header.Get("X-Rid-Request-Id")
	if slowID == "" {
		t.Fatal("slow response has no request id")
	}
	if len(slowAR.Phases) == 0 || slowResp.Header.Get("Server-Timing") == "" {
		t.Fatal("response missing phase breakdown or Server-Timing")
	}

	// Exactly one trace file — the slow request's — must appear; the
	// flush happens after the response is written, so poll briefly.
	tracePath := filepath.Join(traceDir, slowID+".jsonl")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(tracePath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			entries, _ := os.ReadDir(traceDir)
			t.Fatalf("trace %s never flushed; dir has %v", tracePath, entries)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if entries, err := os.ReadDir(traceDir); err != nil || len(entries) != 1 {
		t.Fatalf("trace dir: %v entries, err %v (fast request must not flush)", entries, err)
	}

	// The flushed trace is what `rid explain -trace` reads.
	out, err := exec.Command(bin, "explain", "-trace", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("explain -trace: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "spans") || !strings.Contains(string(out), slowID) {
		t.Fatalf("explain -trace output: %s", out)
	}

	// Access log: one schema-conforming line per analyze request, with
	// the slow corpus run visibly slower than the driver run.
	var lines []string
	deadline = time.Now().Add(10 * time.Second)
	for {
		data, _ := os.ReadFile(accessPath)
		lines = strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) >= 2 && lines[0] != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log never reached 2 lines: %q", string(data))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, l := range lines[:2] {
		var rec struct {
			ID        string           `json:"id"`
			Route     string           `json:"route"`
			Status    int              `json:"status"`
			ElapsedUS int64            `json:"elapsed_us"`
			Phases    map[string]int64 `json:"phases"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("access line %d: %v: %s", i, err, l)
		}
		if rec.Route != "analyze" || rec.Status != 200 || rec.ID == "" || len(rec.Phases) != 8 {
			t.Fatalf("access line %d: %s", i, l)
		}
	}
	if !strings.Contains(lines[1], `"id":"`+slowID+`"`) {
		t.Fatalf("second access line is not the slow request: %s", lines[1])
	}

	// The live exposition parses and counted both analyzes.
	fams := scrapeMetrics(t, base)
	if v, _ := fams.Value("rid_serve_requests_total", map[string]string{"route": "analyze", "code": "200"}); v != 2 {
		t.Fatalf("requests_total{analyze,200} = %v, want 2", v)
	}
	if v, _ := fams.Value("rid_serve_slow_traces_total", nil); v != 1 {
		t.Fatalf("slow_traces_total = %v, want 1", v)
	}
}

// TestCLIServeDrainE2E holds the daemon's load gates against the built
// binary: the analyze counter accounts for every request of a concurrent
// burst, an identical repeat reads every function from the daemon's
// resident store tier and returns the same report, and afterwards the
// admission gauges and the goroutine count return to idle. startDaemon's cleanup checks the SIGINT drain.
func TestCLIServeDrainE2E(t *testing.T) {
	bin := buildCLI(t)
	base := startDaemon(t, bin, "serve", "-quiet",
		"-cache-dir", t.TempDir(),
		"-max-inflight", "2",
		"-queue-wait", "1m",
		"-request-timeout", "2m",
	)
	health := func() serve.Health {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h serve.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	analyzeRequests := func() float64 {
		t.Helper()
		n := 0.0
		for _, s := range scrapeMetrics(t, base)["rid_serve_requests_total"].Samples {
			if s.Labels["route"] == "analyze" {
				n += s.Value
			}
		}
		return n
	}
	storeTraffic := func(ar *serve.AnalyzeResponse) (hits, misses, resident int64) {
		t.Helper()
		var snap obs.Snapshot
		if err := json.Unmarshal(ar.Metrics, &snap); err != nil {
			t.Fatalf("decode metrics: %v", err)
		}
		return snap.Counter(obs.MStoreHits), snap.Counter(obs.MStoreMisses), snap.Counter(obs.MResidentHits)
	}
	boot := health().Goroutines

	// A burst of 12 analyses from 4 clients against 2 slots.
	const clients, burst = 4, 12
	files := experiments.ServeCorpus(1, 317)
	before := analyzeRequests()
	work := make(chan struct{}, burst)
	for i := 0; i < burst; i++ {
		work <- struct{}{}
	}
	close(work)
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				resp, _, err := postAnalyze(base, &serve.AnalyzeRequest{Files: files})
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("burst request: status %d", resp.StatusCode)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	http.DefaultClient.CloseIdleConnections()
	// The route counter is bumped after the handler has written its
	// response, so the last reply can reach its client first: wait for
	// the count to settle, then hold it exact.
	got := analyzeRequests() - before
	for deadline := time.Now().Add(10 * time.Second); got < burst && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		got = analyzeRequests() - before
	}
	if got != burst {
		t.Errorf("rid_serve_requests_total{route=analyze} grew by %v, want %d", got, burst)
	}

	// The same request twice: the repeat finds every function of the
	// first run in the store, all of them resident in the daemon, and
	// carries the same report.
	req := &serve.AnalyzeRequest{Files: files, Metrics: true}
	var replies [2]*serve.AnalyzeResponse
	for i := range replies {
		resp, ar, err := postAnalyze(base, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat request %d: status %d", i, resp.StatusCode)
		}
		replies[i] = ar
	}
	cold, warm := replies[0], replies[1]
	coldHits, coldMisses, _ := storeTraffic(cold)
	if hits, misses, resident := storeTraffic(warm); misses != 0 || resident != hits || hits != coldHits+coldMisses {
		t.Errorf("repeat store traffic: %d hits (%d resident), %d misses; want all %d from memory",
			hits, resident, misses, coldHits+coldMisses)
	}
	if warm.Report != cold.Report || cold.Report == "" {
		t.Errorf("repeat: report identical=%t, first report empty=%t", warm.Report == cold.Report, cold.Report == "")
	}

	// Drained: no analysis slot held, nothing queued, no goroutine leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := health()
		if h.Inflight == 0 && h.Queued == 0 && h.Goroutines <= boot+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon did not drain: boot goroutines %d, now %+v", boot, h)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCLIServeCheckMetrics: the no-listener self-check mode.
func TestCLIServeCheckMetrics(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "serve", "-check-metrics").CombinedOutput()
	if err != nil {
		t.Fatalf("serve -check-metrics: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "metrics exposition OK") {
		t.Fatalf("output: %s", out)
	}
}

// TestCLIExplainTraceRejectsGarbage: a malformed trace file is a usage
// error (exit 2), not a crash or silent success.
func TestCLIExplainTraceRejectsGarbage(t *testing.T) {
	bin := buildCLI(t)
	p := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(p, []byte("{\"seq\":1,\"phase\":\"x\",\"fn\":\"f\",\"start_us\":1,\"dur_us\":2}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "explain", "-trace", p).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2 on malformed trace, got %v\n%s", err, out)
	}
}
