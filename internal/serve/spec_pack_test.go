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
	if err := addSources(a, files); err != nil {
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
	if ar2.Cached {
		t.Error("spec_packs=[lock] was served from the spec=lock cache entry: the memo key must separate the routes")
	}
}

// TestAnalyzeSpecPackMemoKey pins cache safety at the daemon layer: the
// same sources analyzed under different packs must never share a memo
// entry, while an exact repeat still hits.
func TestAnalyzeSpecPackMemoKey(t *testing.T) {
	files := lockgen.Generate(lockgen.Config{Seed: 43, Mix: lockgen.DefaultMix()}).Files
	_, ts := newTestServer(t, Config{})

	_, lock1 := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: files, SpecPacks: []string{"lock"}})
	if lock1.Cached || lock1.Bugs == 0 {
		t.Fatalf("cold lock run: cached=%t bugs=%d", lock1.Cached, lock1.Bugs)
	}

	// Same files, different pack: a fresh run, not the lock entry.
	_, fd := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: files, SpecPacks: []string{"fd"}})
	if fd.Cached {
		t.Fatal("fd-pack request was served from the lock-pack cache entry")
	}
	if fd.Report == lock1.Report {
		t.Fatal("fd-pack report identical to lock-pack report; the differential is vacuous")
	}

	// Exact repeat: memoized, byte-identical.
	_, lock2 := postAnalyze(t, ts.URL, &AnalyzeRequest{Files: files, SpecPacks: []string{"lock"}})
	if !lock2.Cached {
		t.Fatal("identical lock-pack repeat must be served from the result cache")
	}
	if lock2.Report != lock1.Report {
		t.Fatal("cached lock-pack response differs from the original")
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
