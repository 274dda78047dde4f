package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/promtext"
)

func scrapeMetrics(t *testing.T, url string) promtext.Families {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("exposition rejected by parser: %v", err)
	}
	return fams
}

// TestMetricsGoldenShape pins the exposition's family set: every
// serve-level family and a sample of registry families must be present
// with the right type, whatever the traffic so far. New families may be
// added; one listed here never changes type and disappears only together
// with the mechanism it reports.
func TestMetricsGoldenShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %+v", resp.StatusCode, ar)
	}
	fams := scrapeMetrics(t, ts.URL)

	golden := []struct{ name, typ string }{
		{"rid_serve_requests_total", "counter"},
		{"rid_serve_inflight", "gauge"},
		{"rid_serve_inflight_limit", "gauge"},
		{"rid_serve_queued", "gauge"},
		{"rid_serve_queue_limit", "gauge"},
		{"rid_serve_rejected_total", "counter"},
		{"rid_serve_deadline_exceeded_total", "counter"},
		{"rid_serve_slow_traces_total", "counter"},
		{"rid_serve_queue_wait_seconds", "histogram"},
		{"rid_serve_request_duration_seconds", "histogram"},
		{"rid_funcs_analyzed_total", "counter"},
		{"rid_solver_queries_total", "counter"},
		{"rid_store_hits_total", "counter"},
		{"rid_frontend_files_reused_total", "counter"},
		{"rid_frontend_files_lowered_total", "counter"},
		{"rid_funcs_lowered_total", "counter"},
		{"rid_phase_duration_seconds", "histogram"},
	}
	for _, g := range golden {
		f := fams[g.name]
		if f == nil {
			t.Errorf("family %s missing", g.name)
			continue
		}
		if f.Type != g.typ {
			t.Errorf("family %s typed %q, want %q", g.name, f.Type, g.typ)
		}
	}
	if v, ok := fams.Value("rid_serve_requests_total", map[string]string{"route": "analyze", "code": "200"}); !ok || v != 1 {
		t.Errorf("requests_total{analyze,200} = %v, %t; want 1", v, ok)
	}
	if v, _ := fams.Value("rid_funcs_analyzed_total", nil); v < 1 {
		t.Errorf("funcs_analyzed_total = %v after an analyze", v)
	}
	if v, _ := fams.Value("rid_serve_request_duration_seconds_count", map[string]string{"route": "analyze"}); v != 1 {
		t.Errorf("request_duration_count{analyze} = %v, want 1", v)
	}
	if v, _ := fams.Value("rid_serve_queue_wait_seconds_count", nil); v != 1 {
		t.Errorf("queue_wait_count = %v, want 1 (one admitted analyze)", v)
	}
}

// TestMetricsSelfCheck: the daemon's own exposition round-trips through
// the validating parser (the -check-metrics path), traffic or not.
func TestMetricsSelfCheck(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if err := srv.CheckMetrics(); err != nil {
		t.Fatalf("empty-server self-check: %v", err)
	}
	postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	if err := srv.CheckMetrics(); err != nil {
		t.Fatalf("post-traffic self-check: %v", err)
	}
}

// TestMetricsMonotonicUnderConcurrentScrapes is the tentpole race test:
// 8 scrapers hammer /metrics while analyzes run; every scrape must
// parse, and no counter series may ever decrease between consecutive
// scrapes by the same scraper. Run with -race in CI.
func TestMetricsMonotonicUnderConcurrentScrapes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 4})

	stop := make(chan struct{})
	var analyzers sync.WaitGroup
	for i := 0; i < 3; i++ {
		analyzers.Add(1)
		go func() {
			defer analyzers.Done()
			body, _ := json.Marshal(&AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}

	isCounter := func(fams promtext.Families, fam string) bool {
		f := fams[fam]
		return f != nil && (f.Type == "counter" || f.Type == "histogram")
	}
	var scrapers sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			prev := map[string]float64{}
			for n := 0; n < 12; n++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				fams, err := promtext.Parse(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for famName, f := range fams {
					if !isCounter(fams, famName) {
						continue
					}
					for _, s := range f.Samples {
						key := s.Name + "|" + labelString(s.Labels)
						if old, ok := prev[key]; ok && s.Value < old {
							errs <- &monotonicityError{series: key, old: old, new: s.Value}
							return
						}
						prev[key] = s.Value
					}
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	analyzers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

type monotonicityError struct {
	series   string
	old, new float64
}

func (e *monotonicityError) Error() string {
	return "counter " + e.series + " decreased between scrapes"
}

func labelString(labels map[string]string) string {
	var parts []string
	for k, v := range labels {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// TestRequestIDs: generated IDs are deterministic under IDSeed, inbound
// IDs are honored when sane and replaced when not, and every response
// carries the header.
func TestRequestIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{IDSeed: 7})

	get := func(hdr string) string {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if hdr != "" {
			req.Header.Set("X-Rid-Request-Id", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Rid-Request-Id")
	}

	first := get("")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(first) {
		t.Fatalf("generated id %q not 16 hex digits", first)
	}
	if got := get("my-trace-id_01"); got != "my-trace-id_01" {
		t.Fatalf("sane inbound id replaced: %q", got)
	}
	if got := get("../../etc/passwd"); got == "../../etc/passwd" || got == "" {
		t.Fatalf("path-hostile inbound id must be replaced, got %q", got)
	}

	// Determinism: a second server with the same seed mints the same
	// first id.
	_, ts2 := newTestServer(t, Config{IDSeed: 7})
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Rid-Request-Id"); got != first {
		t.Fatalf("seeded id stream not deterministic: %q vs %q", got, first)
	}
}

// syncBuf is a goroutine-safe writer: the middleware finishes the access
// log line after the response reaches the client.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := strings.Split(strings.TrimSpace(s.b.String()), "\n")
	if len(out) == 1 && out[0] == "" {
		return nil
	}
	return out
}

// accessLine pins the access-log schema: fixed key order, append-only.
var accessLine = regexp.MustCompile(`^\{"id":"[^"]+","route":"[a-z]+","status":\d+,"queue_wait_us":\d+,"elapsed_us":\d+,` +
	`"phases":\{"classify":\d+,"enumerate":\d+,"exec":\d+,"ipp":\d+,"solver":\d+,"replay":\d+,"cacheio":\d+,"callgraph":\d+\},` +
	`"store_hits":\d+,"store_misses":\d+,"degraded":(true|false),"diags":\[[^\]]*\],"funcs_lowered":\d+\}$`)

// waitLines polls until the access log holds want lines (the middleware
// writes after the response is on the wire).
func waitLines(t *testing.T, buf *syncBuf, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls := buf.lines()
		if len(ls) >= want {
			return ls
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log has %d lines, want %d:\n%s", len(ls), want, strings.Join(ls, "\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAccessLog: one line per request — any route, any outcome — in the
// pinned key order; every analyze line, an identical repeat included,
// carries a real pipeline phase.
func TestAccessLog(t *testing.T) {
	var buf syncBuf
	_, ts := newTestServer(t, Config{AccessLog: &buf, IDSeed: 3})

	postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	getHealth(t, ts.URL)

	lines := waitLines(t, &buf, 3)
	if len(lines) != 3 {
		t.Fatalf("want exactly 3 lines, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	for i, l := range lines {
		if !accessLine.MatchString(l) {
			t.Fatalf("line %d breaks the pinned schema:\n%s", i, l)
		}
	}
	for _, l := range lines[:2] {
		if !strings.Contains(l, `"route":"analyze"`) {
			t.Fatalf("analyze line: %s", l)
		}
		var rec struct {
			Phases map[string]int64 `json:"phases"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Phases["exec"] == 0 && rec.Phases["enumerate"] == 0 {
			t.Fatalf("analyze line shows no pipeline time: %s", l)
		}
	}
	if !strings.Contains(lines[2], `"route":"healthz"`) {
		t.Fatalf("third line: %s", lines[2])
	}
}

// TestPhaseBreakdownAndServerTiming: the response carries the exact
// per-request phase breakdown in fixed order, mirrored in the
// Server-Timing header; a concurrent-workers run keeps it exact
// (per-request child registry, not a share of global counters).
func TestPhaseBreakdownAndServerTiming(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Prime the shared registry with another run so bleed-through would
	// be visible as inflated counts.
	postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})

	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{
		Files: map[string]string{"drv.c": buggyDriver}, Workers: 4,
	})
	want := []string{"classify", "enumerate", "exec", "ipp", "solver", "replay", "cacheio", "callgraph"}
	if len(ar.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %d entries", ar.Phases, len(want))
	}
	for i, name := range want {
		if ar.Phases[i].Phase != name {
			t.Fatalf("phase[%d] = %q, want %q (fixed order)", i, ar.Phases[i].Phase, name)
		}
	}
	// Exactness: one function analyzed → exactly one exec span and one
	// enumerate span, regardless of the earlier run or Workers=4.
	byName := map[string]PhaseMS{}
	for _, p := range ar.Phases {
		byName[p.Phase] = p
	}
	if byName["exec"].Count != 1 || byName["enumerate"].Count != 1 {
		t.Fatalf("per-request phase counts bleed: %+v", ar.Phases)
	}
	st := resp.Header.Get("Server-Timing")
	if st == "" {
		t.Fatal("no Server-Timing header")
	}
	for _, name := range want {
		if !strings.Contains(st, name+";dur=") {
			t.Fatalf("Server-Timing missing %s: %q", name, st)
		}
	}
}

// TestSlowTraceSampling: with a microscopic threshold every analyze
// flushes a trace named for its request ID; with a huge threshold none
// do; non-analyze routes never buffer at all.
func TestSlowTraceSampling(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SlowTraceDir: dir, SlowThreshold: time.Nanosecond, IDSeed: 9})

	resp, _ := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	id := resp.Header.Get("X-Rid-Request-Id")
	getHealth(t, ts.URL)

	path := filepath.Join(dir, id+".jsonl")
	waitForFile(t, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want exactly 1 trace file, dir has %d", len(entries))
	}
	validateTraceFile(t, path, id)

	slow := t.TempDir()
	_, ts2 := newTestServer(t, Config{SlowTraceDir: slow, SlowThreshold: time.Hour})
	postAnalyze(t, ts2.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	time.Sleep(50 * time.Millisecond)
	if entries, _ := os.ReadDir(slow); len(entries) != 0 {
		t.Fatalf("fast request flushed a trace: %v", entries)
	}
}

func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace file %s never appeared", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// validateTraceFile checks the flushed JSONL: a header line naming the
// request, then well-formed span lines with strictly increasing seq.
func validateTraceFile(t *testing.T, path, id string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("empty trace file")
	}
	var hdr struct {
		RequestID string `json:"request_id"`
		Status    int    `json:"status"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.RequestID != id {
		t.Fatalf("header line %q (err %v), want request_id %q", sc.Text(), err, id)
	}
	last, spans := int64(0), 0
	for sc.Scan() {
		var span struct {
			Seq   int64  `json:"seq"`
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if span.Seq <= last || span.Phase == "" {
			t.Fatalf("bad span seq=%d phase=%q after seq=%d", span.Seq, span.Phase, last)
		}
		last = span.Seq
		spans++
	}
	if spans == 0 {
		t.Fatal("trace has no spans")
	}
}

// TestSlowSampler504Trigger unit-tests the failure trigger: a 504'd
// request flushes even when it was not slow by threshold.
func TestSlowSampler504Trigger(t *testing.T) {
	dir := t.TempDir()
	s := newSlowSampler(dir, time.Hour)
	buf := s.buffer()
	buf.Write([]byte(`{"seq":1,"phase":"classify","fn":"","start_us":1,"dur_us":2}` + "\n"))
	rec := &reqRecord{id: "deadbeef00000000", route: routeAnalyze, status: http.StatusGatewayTimeout,
		elapsed: time.Millisecond, trace: buf}
	srv := &Server{}
	s.finish(rec, &srv.metrics.slowTraces, srv)
	if _, err := os.Stat(filepath.Join(dir, "deadbeef00000000.jsonl")); err != nil {
		t.Fatalf("504 request did not flush: %v", err)
	}
	if srv.metrics.slowTraces.Load() != 1 {
		t.Fatal("slow trace counter not incremented")
	}

	// Same shape, 200 and fast: no flush.
	buf2 := s.buffer()
	buf2.Write([]byte(`{"seq":1,"phase":"classify","fn":"","start_us":1,"dur_us":2}` + "\n"))
	rec2 := &reqRecord{id: "cafe000000000000", route: routeAnalyze, status: http.StatusOK,
		elapsed: time.Millisecond, trace: buf2}
	s.finish(rec2, &srv.metrics.slowTraces, srv)
	if _, err := os.Stat(filepath.Join(dir, "cafe000000000000.jsonl")); err == nil {
		t.Fatal("fast OK request flushed a trace")
	}
}

// TestHealthzObservabilityCounters: the appended healthz fields move.
func TestHealthzObservabilityCounters(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SlowTraceDir: dir, SlowThreshold: time.Nanosecond})
	postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})

	deadline := time.Now().Add(5 * time.Second)
	for {
		h := getHealth(t, ts.URL)
		if h.Served == 2 && h.SlowTraces >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz counters never converged: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBoundedBuf: the trace buffer caps at maxTraceBuf and counts what
// it drops, never failing the write.
func TestBoundedBuf(t *testing.T) {
	var b boundedBuf
	chunk := bytes.Repeat([]byte("x"), 1<<20)
	var total int64
	for i := 0; i < 6; i++ {
		n, err := b.Write(chunk)
		if err != nil || n != len(chunk) {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
		total += int64(n)
	}
	if len(b.b) != maxTraceBuf {
		t.Fatalf("kept %d bytes, want cap %d", len(b.b), maxTraceBuf)
	}
	if b.dropped != total-int64(maxTraceBuf) {
		t.Fatalf("dropped = %d, want %d", b.dropped, total-int64(maxTraceBuf))
	}
}
