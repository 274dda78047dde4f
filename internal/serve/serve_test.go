package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

const buggyDriver = `
extern int pm_runtime_get_sync(struct device *dev);
extern int pm_runtime_put(struct device *dev);
extern int do_transfer(struct device *dev);

int drv_op(struct device *dev) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postAnalyze(t *testing.T, url string, req *AnalyzeRequest) (*http.Response, *AnalyzeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, body)
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, *AnalyzeResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatalf("status %d: body is not an AnalyzeResponse (%v): %s", resp.StatusCode, err, data)
	}
	return resp, &ar
}

func getHealth(t *testing.T, url string) Health {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// drainedHealth reads /healthz once and fails unless no request holds or
// waits for an inflight slot. A slot goes back before its reply starts,
// so once every client has its reply the first read is final.
func drainedHealth(t *testing.T, url string) Health {
	t.Helper()
	h := getHealth(t, url)
	if h.Inflight != 0 || h.Queued != 0 {
		t.Fatalf("slots not drained: %+v", h)
	}
	return h
}

func TestAnalyzeFindsBug(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, ar)
	}
	if ar.Bugs != 1 || !strings.Contains(ar.Report, "drv_op") {
		t.Fatalf("response: %+v", ar)
	}
	if h := drainedHealth(t, ts.URL); h.Served != 1 {
		t.Fatalf("health after one request: %+v", h)
	}
}

func TestAnalyzeMalformedInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"truncated json", `{"files": {`, "malformed"},
		{"unknown field", `{"files":{"a.c":""},"bogus":1}`, "malformed"},
		{"no sources", `{}`, "no sources"},
		{"files and corpus", `{"files":{"a.c":""},"corpus":true}`, "mutually exclusive"},
		{"corpus without dir", `{"corpus":true}`, "no resident corpus"},
		{"bad format", `{"files":{"a.c":""},"format":"xml"}`, "unknown format"},
		{"bad spec", `{"files":{"a.c":""},"spec":"bsd"}`, "unknown spec"},
		{"bad source", `{"files":{"a.c":"int f( {"}}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (want 400): %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.want) {
				t.Fatalf("error body %q missing %q", data, tc.want)
			}
		})
	}
}

// TestAnalyzeBodyTooLarge: a body over maxBodyBytes is refused with 413,
// not reported as a malformed body.
func TestAnalyzeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := io.MultiReader(
		strings.NewReader(`{"files":{"a.c":"`),
		io.LimitReader(zeroDigits{}, maxBodyBytes),
		strings.NewReader(`"}}`))
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), "request body over") {
		t.Fatalf("status %d (want 413): %s", resp.StatusCode, data)
	}
	fams := scrapeMetrics(t, ts.URL)
	if v, ok := fams.Value("rid_serve_requests_total", map[string]string{"route": "analyze", "code": "413"}); !ok || v != 1 {
		t.Errorf("requests_total{analyze,413} = %v, %t; want 1", v, ok)
	}
}

// TestAnalyzeDeepNesting: a source nested far past the parser's bound is
// refused with 400 and the parser's one error instead of overflowing the
// daemon's stack, and the daemon then serves the next request.
func TestAnalyzeDeepNesting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 100000
	src := "int f(void) { return " + strings.Repeat("(", n) + "0" + strings.Repeat(")", n) + "; }"
	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"deep.c": src}})
	if resp.StatusCode != http.StatusBadRequest || !strings.HasSuffix(ar.Error, "nesting deeper than 1000") {
		t.Fatalf("status %d (want 400), error %q", resp.StatusCode, ar.Error)
	}
	resp, ar = postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	if resp.StatusCode != http.StatusOK || ar.Bugs != 1 {
		t.Fatalf("next request: status %d: %+v", resp.StatusCode, ar)
	}
}

// zeroDigits is an endless stream of '0' bytes.
type zeroDigits struct{}

func (zeroDigits) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

func TestAnalyzeDeadline504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{
		Files:      experiments.ServeCorpus(1, 1),
		DeadlineMS: 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %+v", resp.StatusCode, ar)
	}
	if !strings.Contains(ar.Error, "deadline exceeded") {
		t.Fatalf("504 body must carry the deadline diagnostic, got: %+v", ar)
	}
	if h := getHealth(t, ts.URL); h.DeadlineExceeded != 1 {
		t.Fatalf("deadline_exceeded counter: %+v", h)
	}

	// A deadline-degraded outcome leaves nothing a later request could
	// replay: the same request with budget succeeds.
	resp2, ar2 := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}, DeadlineMS: 1})
	if resp2.StatusCode != http.StatusGatewayTimeout && resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp2.StatusCode, ar2)
	}
	if resp2.StatusCode == http.StatusGatewayTimeout {
		resp3, ar3 := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
		if resp3.StatusCode != http.StatusOK || ar3.Degraded || ar3.Bugs != 1 {
			t.Fatalf("degraded outcome leaked into a later request: status=%d %+v", resp3.StatusCode, ar3)
		}
	}
}

func TestAnalyzeAdmissionRejected429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: -1, QueueWait: 50 * time.Millisecond})

	// Occupy the only inflight slot; with no queue the next request must
	// be rejected immediately.
	release, _, err := srv.gate.Admit(context.Background())
	if err != nil {
		t.Fatalf("occupying the inflight slot: %v", err)
	}
	resp, _ := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (want 429)", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 must carry a positive Retry-After, got %q", ra)
	}
	if h := getHealth(t, ts.URL); h.Rejected != 1 || h.Inflight != 1 {
		t.Fatalf("health under overload: %+v", h)
	}

	// Freeing the slot restores service.
	release()
	resp2, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	if resp2.StatusCode != http.StatusOK || ar.Bugs != 1 {
		t.Fatalf("after release: status %d %+v", resp2.StatusCode, ar)
	}
}

func TestExplainEndpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "drv.c"), []byte(buggyDriver), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{CorpusDir: dir})

	resp, err := http.Get(ts.URL + "/v1/explain/drv_op")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	s := string(data)
	if !strings.Contains(s, "drv_op") || !strings.Contains(s, "path") {
		t.Fatalf("explain body: %s", s)
	}

	// Unknown function.
	resp2, _ := http.Get(ts.URL + "/v1/explain/nope")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fn: status %d (want 404)", resp2.StatusCode)
	}
}

func TestExplainWithoutCorpus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/explain/drv_op")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d (want 404 without -dir)", resp.StatusCode)
	}
}

func TestSummaryEndpoint(t *testing.T) {
	cacheDir := t.TempDir()
	cfg := Config{}
	cfg.Options.CacheDir = cacheDir
	_, ts := newTestServer(t, cfg)

	// Populate the store through a real analysis.
	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: map[string]string{"drv.c": buggyDriver}})
	if resp.StatusCode != http.StatusOK || ar.Bugs != 1 {
		t.Fatalf("analyze: status %d %+v", resp.StatusCode, ar)
	}

	digest := anyStoredDigest(t, cacheDir)
	r2, err := http.Get(ts.URL + "/v1/summary/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	data, _ := io.ReadAll(r2.Body)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("summary lookup: status %d: %s", r2.StatusCode, data)
	}
	var sr SummaryResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Fn == "" || sr.Digest != digest {
		t.Fatalf("summary response: %+v", sr)
	}

	for path, want := range map[string]int{
		"/v1/summary/zz":                         http.StatusBadRequest,
		"/v1/summary/" + strings.Repeat("0", 64): http.StatusNotFound,
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("GET %s: status %d (want %d)", path, r.StatusCode, want)
		}
	}
}

func TestSummaryWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := http.Get(ts.URL + "/v1/summary/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d (want 404 without -cache-dir)", r.StatusCode)
	}
}

// anyStoredDigest reads one entry header from the persistent store and
// returns its content digest (header field 3, see internal/store).
func anyStoredDigest(t *testing.T, dir string) string {
	t.Helper()
	var digest string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || digest != "" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		line, _, _ := strings.Cut(string(data), "\n")
		fields := strings.Fields(line)
		if len(fields) == 7 && fields[0] == "RIDSUM" {
			digest = fields[3]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if digest == "" {
		t.Fatal("no store entries were published by the analysis")
	}
	return digest
}

// TestConcurrentClientsByteIdentical is the shared-analyzer safety net:
// N concurrent clients with different worker counts against one daemon
// must all receive byte-identical reports. Run under -race via
// `make race`.
func TestConcurrentClientsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 4})
	corpus := experiments.ServeCorpus(1, 317)

	resp, baseline := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: corpus})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline: status %d: %+v", resp.StatusCode, baseline)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &AnalyzeRequest{
				Files:   corpus,
				Workers: 1 + i%3, // 1, 2, 3
				// no_cache has no effect; half the clients send it to
				// pin that the wire still accepts it.
				NoCache: i%2 == 0,
			}
			body, err := json.Marshal(req)
			if err != nil {
				errs <- err
				return
			}
			r, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer r.Body.Close()
			var ar AnalyzeResponse
			if err := json.NewDecoder(r.Body).Decode(&ar); err != nil {
				errs <- fmt.Errorf("client %d: decode: %v", i, err)
				return
			}
			if r.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", i, r.StatusCode, ar.Error)
				return
			}
			if ar.Report != baseline.Report {
				errs <- fmt.Errorf("client %d (workers=%d, nocache=%t): report differs from single-client baseline", i, req.Workers, req.NoCache)
				return
			}
			if ar.Bugs != baseline.Bugs {
				errs <- fmt.Errorf("client %d: bugs %d != baseline %d", i, ar.Bugs, baseline.Bugs)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	drainedHealth(t, ts.URL)
}
