package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"repro/internal/corpus/lockgen"
	"repro/rid"
)

// cliReport runs the given sources through the public rid pipeline —
// exactly what cmd/rid does for -spec/-spec-pack — and returns the text
// report.
func cliReport(t *testing.T, files map[string]string, specs rid.Specs, opts rid.Options) string {
	t.Helper()
	a := rid.New(specs)
	a.SetOptions(opts)
	if err := a.AddSources(files); err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReports(&buf, "text", false); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAnalyzeSpecPackMatchesCLI pins the daemon's two pack-selection
// routes to the CLI: a request naming the lock pack via "spec", and one
// merging it via "spec_packs", must both return a report byte-identical
// to `rid -spec lock` / `rid -spec-pack lock` over the same sources.
func TestAnalyzeSpecPackMatchesCLI(t *testing.T) {
	files := lockgen.Generate(lockgen.Config{Seed: 41, Mix: lockgen.DefaultMix()}).Files

	lockSpecs, err := rid.SpecPack("lock")
	if err != nil {
		t.Fatal(err)
	}
	asBase := cliReport(t, files, lockSpecs, rid.Options{})
	asPack := cliReport(t, files, rid.Specs{}, rid.Options{SpecPacks: []string{"lock"}})
	if asBase != asPack {
		t.Fatalf("CLI baseline disagreement: -spec lock and -spec-pack lock differ:\n%s\n---\n%s", asBase, asPack)
	}
	if !strings.Contains(asBase, "lock") {
		t.Fatalf("baseline found no lock reports; the oracle is vacuous:\n%s", asBase)
	}

	_, ts := newTestServer(t, Config{})
	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: files, Spec: "lock"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec=lock: status %d: %+v", resp.StatusCode, ar)
	}
	if ar.Report != asBase {
		t.Errorf("spec=lock report differs from CLI:\n--- serve ---\n%s--- cli ---\n%s", ar.Report, asBase)
	}

	resp2, ar2 := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: files, SpecPacks: []string{"lock"}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("spec_packs=[lock]: status %d: %+v", resp2.StatusCode, ar2)
	}
	if ar2.Report != asBase {
		t.Errorf("spec_packs=[lock] report differs from CLI:\n--- serve ---\n%s--- cli ---\n%s", ar2.Report, asBase)
	}
}

// TestAnalyzeSpecPackMemoKey pins cache safety at the daemon layer: the
// same sources analyzed under different packs must never share an entry
// of the summary store, while an exact repeat is served from it.
func TestAnalyzeSpecPackMemoKey(t *testing.T) {
	files := lockgen.Generate(lockgen.Config{Seed: 43, Mix: lockgen.DefaultMix()}).Files
	cfg := Config{}
	cfg.Options.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg)
	// analyze posts one request and returns its store hits and misses,
	// read as /healthz deltas (requests run one at a time).
	analyze := func(packs ...string) (*AnalyzeResponse, int64, int64) {
		t.Helper()
		h0 := getHealth(t, ts.URL)
		resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: files, SpecPacks: packs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("packs %v: status %d: %+v", packs, resp.StatusCode, ar)
		}
		h1 := getHealth(t, ts.URL)
		return ar, h1.StoreHits - h0.StoreHits, h1.StoreMisses - h0.StoreMisses
	}

	lock1, hits, misses := analyze("lock")
	if lock1.Bugs == 0 || hits != 0 || misses == 0 {
		t.Fatalf("cold lock run: bugs=%d store hits/misses %d/%d", lock1.Bugs, hits, misses)
	}

	// Exact repeat: every function from the store, byte-identical.
	lock2, hits, misses := analyze("lock")
	if hits == 0 || misses != 0 {
		t.Fatalf("lock-pack repeat: store hits/misses %d/%d, want all hits", hits, misses)
	}
	if lock2.Report != lock1.Report {
		t.Fatal("lock-pack repeat differs from the original")
	}

	// The same functions under another spec set: analyzed afresh, none
	// served from a lock-only entry.
	if _, hits, misses := analyze("lock", "fd"); hits != 0 || misses == 0 {
		t.Fatalf("lock+fd run: store hits/misses %d/%d, want only misses", hits, misses)
	}
}

// TestAnalyzeUnknownSpecPack rejects a bad pack name before admission,
// with the CLI's wording.
func TestAnalyzeUnknownSpecPack(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{
		Files:     map[string]string{"a.c": "int f(void) { return 0; }"},
		SpecPacks: []string{"bsd"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (want 400): %+v", resp.StatusCode, ar)
	}
	if !strings.Contains(ar.Error, "unknown spec pack") {
		t.Fatalf("error %q missing pack diagnostic", ar.Error)
	}
}

// TestAnalyzeUnknownSpecListsPacks pins that the unknown-spec error is
// built from the pack registry: every built-in pack name appears in it.
func TestAnalyzeUnknownSpecListsPacks(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, ar := postAnalyze(t, ts.URL, &AnalyzeRequest{
		Files: map[string]string{"a.c": "int f(void) { return 0; }"},
		Spec:  "bsd",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (want 400): %+v", resp.StatusCode, ar)
	}
	if ar.Error != `unknown spec "bsd" (want fd, linux-dpm, lock or python-c)` {
		t.Fatalf("error %q", ar.Error)
	}
	for _, name := range rid.SpecPackNames() {
		if !strings.Contains(ar.Error, name) {
			t.Fatalf("error %q does not name pack %q", ar.Error, name)
		}
	}
}
