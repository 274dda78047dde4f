package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/remote"
	"repro/rid"
)

// funcHeader matches a top-level "int f(...) {" line of a generated tree.
var funcHeader = regexp.MustCompile(`(?m)^int \w+\(.*\) \{$`)

// editTree returns files with a refcount-neutral local declaration,
// unique to id, inserted at the end of the site-th function header in
// file-name order. It changes that function's digest, and its callers',
// but no line number.
func editTree(t *testing.T, files map[string]string, site, id int) map[string]string {
	t.Helper()
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(map[string]string, len(files))
	for k, v := range files {
		out[k] = v
	}
	for _, n := range names {
		locs := funcHeader.FindAllStringIndex(files[n], -1)
		if site < len(locs) {
			end := locs[site][1]
			out[n] = files[n][:end] + fmt.Sprintf(" int serve_edit = %d;", id) + files[n][end:]
			return out
		}
		site -= len(locs)
	}
	t.Fatalf("tree has fewer function headers than site %d", site)
	return nil
}

// shiftTree returns files with two comment lines prepended to each, so
// every function moves down two lines and keeps its digest.
func shiftTree(files map[string]string) map[string]string {
	out := make(map[string]string, len(files))
	for k, v := range files {
		out[k] = "/* shifted */\n\n" + v
	}
	return out
}

// storeCounts is one run's summary-store traffic.
type storeCounts struct{ hits, misses, resident int64 }

// analyzeSnapshot posts one metrics-carrying analysis and returns the
// reply and its per-request metrics.
func analyzeSnapshot(url string, files map[string]string, workers int) (*AnalyzeResponse, obs.Snapshot, error) {
	var snap obs.Snapshot
	body, err := json.Marshal(&AnalyzeRequest{Files: files, Workers: workers, Metrics: true})
	if err != nil {
		return nil, snap, err
	}
	r, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, snap, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, snap, err
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return nil, snap, fmt.Errorf("status %d: %v: %s", r.StatusCode, err, data)
	}
	if r.StatusCode != http.StatusOK {
		return nil, snap, fmt.Errorf("status %d: %s", r.StatusCode, ar.Error)
	}
	if err := json.Unmarshal(ar.Metrics, &snap); err != nil {
		return nil, snap, fmt.Errorf("decode metrics: %v", err)
	}
	return &ar, snap, nil
}

// analyzeCounted is analyzeSnapshot that checks the resident hits are a
// subset of the store hits and returns the run's store traffic.
func analyzeCounted(url string, files map[string]string, workers int) (*AnalyzeResponse, storeCounts, error) {
	ar, snap, err := analyzeSnapshot(url, files, workers)
	if err != nil {
		return nil, storeCounts{}, err
	}
	c := storeCounts{snap.Counter(obs.MStoreHits), snap.Counter(obs.MStoreMisses), snap.Counter(obs.MResidentHits)}
	if c.resident > c.hits {
		return nil, c, fmt.Errorf("store_resident_hits %d > store_hits %d", c.resident, c.hits)
	}
	return ar, c, nil
}

// freshRun analyzes files the way one CLI invocation does: a new
// analyzer over dir, so every store hit is read from disk.
func freshRun(t *testing.T, dir string, files map[string]string) storeCounts {
	t.Helper()
	a := rid.New(rid.LinuxDPMSpecs())
	a.SetOptions(rid.Options{CacheDir: dir})
	if err := a.AddSources(files); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	return storeCounts{res.MetricValue("store_hits"), res.MetricValue("store_misses"), res.MetricValue("store_resident_hits")}
}

// TestServeResidentEditStream is the resident tier's differential: one
// daemon over a store serves an edit stream, first in sequence (whose
// per-request store traffic must equal fresh disk-only runs over the same
// steps) and then as concurrent edits mixed with a line-shifted tree
// (each reply byte-identical to a store-less run of its own tree).
func TestServeResidentEditStream(t *testing.T) {
	base := experiments.ServeCorpus(1, 317)
	editA, editB := editTree(t, base, 0, 1), editTree(t, base, 7, 2)
	shifted := shiftTree(base)
	cfg := Config{MaxInflight: 4}
	cfg.Options.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg)

	steps := []struct {
		name  string
		files map[string]string
	}{{"cold", base}, {"edit A", editA}, {"edit B", editB}, {"revert", base}}
	cliDir := t.TempDir()
	for i, st := range steps {
		_, got, err := analyzeCounted(ts.URL, st.files, 1)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want := freshRun(t, cliDir, st.files)
		if got.hits != want.hits || got.misses != want.misses {
			t.Errorf("%s: daemon hits/misses %d/%d, fresh runs %d/%d", st.name, got.hits, got.misses, want.hits, want.misses)
		}
		if want.resident != 0 {
			t.Errorf("%s: a fresh run counted %d resident hits", st.name, want.resident)
		}
		// Every entry the daemon has read or written is resident, so after
		// the cold request each hit comes from memory.
		if i > 0 && (got.hits == 0 || got.resident != got.hits) {
			t.Errorf("%s: %d of %d hits from memory, want all", st.name, got.resident, got.hits)
		}
	}

	_, plain := newTestServer(t, Config{})
	trees := []map[string]string{base, editA, editB, shifted}
	want := make([]string, len(trees))
	for i, files := range trees {
		resp, ar := postAnalyze(t, plain.URL, &AnalyzeRequest{Files: files})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tree %d without a store: status %d", i, resp.StatusCode)
		}
		want[i] = ar.Report
	}
	if want[3] == want[0] || !strings.Contains(want[0], "drivers/gen/") {
		t.Fatal("the shifted tree must report other positions than the base tree")
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := i % len(trees)
			ar, _, err := analyzeCounted(ts.URL, trees[tree], 1+i%2)
			if err != nil {
				errs <- fmt.Errorf("client %d: %v", i, err)
				return
			}
			if ar.Report != want[tree] {
				errs <- fmt.Errorf("client %d (tree %d): report differs from a store-less run of its tree", i, tree)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	drainedHealth(t, ts.URL)
}

// flipPayloadByte corrupts fn's entry under dir so its checksum fails.
func flipPayloadByte(t *testing.T, dir, fn string) {
	t.Helper()
	path := store.EntryPath(dir, store.EntryName(fn))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeResidentCorruptedEntry starts a daemon over a store holding
// one corrupted entry. The first request reads it, reports cache-invalid
// and re-analyzes; the fresh outcome becomes resident, so the second
// request replays it from memory even though the disk copy is corrupted
// again in between.
func TestServeResidentCorruptedEntry(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{"drv.c": buggyDriver}
	if c := freshRun(t, dir, files); c.misses != 1 {
		t.Fatalf("populating run: %+v, want one miss", c)
	}
	flipPayloadByte(t, dir, "drv_op")

	cfg := Config{}
	cfg.Options.CacheDir = dir
	_, ts := newTestServer(t, cfg)
	first, c, err := analyzeCounted(ts.URL, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Diagnostics) != 1 || first.Diagnostics[0].Function != "drv_op" || first.Diagnostics[0].Kind != "cache-invalid" {
		t.Fatalf("first request diagnostics %+v, want one cache-invalid for drv_op", first.Diagnostics)
	}
	if c.hits != 0 || c.misses != 1 {
		t.Fatalf("first request store traffic %+v, want one miss", c)
	}

	flipPayloadByte(t, dir, "drv_op")
	second, c, err := analyzeCounted(ts.URL, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Diagnostics) != 0 {
		t.Fatalf("second request diagnostics %+v, want none", second.Diagnostics)
	}
	if c.hits != 1 || c.resident != 1 || c.misses != 0 {
		t.Fatalf("second request store traffic %+v, want one hit from memory", c)
	}
	if second.Report != first.Report {
		t.Fatal("the resident replay differs from the cold re-analysis")
	}
}

// TestServeResidentRepeatIsFresh sends the same plain request twice to a
// daemon whose store holds one corrupted entry. The first reply reports
// the cache-invalid entry; the repeat is a new run that finds the fresh
// outcome resident, so it carries no diagnostic and the same report.
func TestServeResidentRepeatIsFresh(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{"drv.c": buggyDriver}
	if c := freshRun(t, dir, files); c.misses != 1 {
		t.Fatalf("populating run: %+v, want one miss", c)
	}
	flipPayloadByte(t, dir, "drv_op")

	cfg := Config{}
	cfg.Options.CacheDir = dir
	_, ts := newTestServer(t, cfg)
	req := &AnalyzeRequest{Files: files}
	resp, first := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d %+v", resp.StatusCode, first)
	}
	if len(first.Diagnostics) != 1 || first.Diagnostics[0].Kind != "cache-invalid" {
		t.Fatalf("first request diagnostics %+v, want one cache-invalid", first.Diagnostics)
	}
	resp, second := postAnalyze(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d %+v", resp.StatusCode, second)
	}
	if len(second.Diagnostics) != 0 || second.Degraded {
		t.Fatalf("repeat: diagnostics %+v, degraded %t; want a fresh run with neither", second.Diagnostics, second.Degraded)
	}
	if second.Report != first.Report {
		t.Fatal("the repeat's report differs from the first request's")
	}
}

// TestServeResidentSkipsFleetProbe runs a daemon over a local store and a
// counting fleet store: the cold request probes the fleet for every
// function, and a repeat whose functions are all resident probes none.
func TestServeResidentSkipsFleetProbe(t *testing.T) {
	rsrv, err := remote.NewServer(remote.ServerConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var probed atomic.Int64
	fleet := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/has" {
			body, _ := io.ReadAll(r.Body)
			var req struct{ Names []string }
			if err := json.Unmarshal(body, &req); err == nil {
				probed.Add(int64(len(req.Names)))
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		rsrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(fleet.Close)

	cfg := Config{}
	cfg.Options.CacheDir = t.TempDir()
	cfg.Options.CacheURL = fleet.URL
	_, ts := newTestServer(t, cfg)
	files := experiments.ServeCorpus(1, 317)
	cold, c, err := analyzeCounted(ts.URL, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := probed.Load(); n == 0 || c.misses == 0 {
		t.Fatalf("cold request probed %d names with %d misses, want both nonzero", n, c.misses)
	}
	before := probed.Load()
	warm, c, err := analyzeCounted(ts.URL, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := probed.Load() - before; n != 0 {
		t.Fatalf("all-resident request probed the fleet for %d names, want 0", n)
	}
	if c.misses != 0 || c.resident != c.hits {
		t.Fatalf("all-resident request store traffic %+v, want every hit from memory", c)
	}
	if warm.Report != cold.Report || len(warm.Diagnostics) != 0 {
		t.Fatalf("warm request: diagnostics %+v, report equal %t", warm.Diagnostics, warm.Report == cold.Report)
	}
}
