package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/rid"
)

// coldReport is the text report of files from an analyzer with no
// history: nothing lowered before, no store.
func coldReport(t *testing.T, files map[string]string) string {
	t.Helper()
	a := rid.New(rid.LinuxDPMSpecs())
	if err := a.AddSources(files); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteReports(&buf, "text", false); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServeFrontendMemo is the frontend memo's serve differential. In
// sequence, a one-function edit of a 46-file tree re-lowers one file and
// reuses 45, and the per-request counts add up in /metrics. Then eight
// concurrent clients send overlapping one-function edits of that tree
// through one daemon, so the memo flips between trees under them, and
// every reply must equal a cold run of its own tree.
func TestServeFrontendMemo(t *testing.T) {
	base := experiments.ServeCorpus(1, 317)
	if len(base) != 46 {
		t.Fatalf("scale-1 tree has %d files, want 46", len(base))
	}
	cfg := Config{MaxInflight: 4}
	cfg.Options.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg)

	steps := []struct {
		name            string
		files           map[string]string
		reused, lowered int64
	}{
		{"cold", base, 0, 46},
		{"edit", editTree(t, base, 5, 1), 45, 1},
		{"repeat", editTree(t, base, 5, 1), 46, 0},
	}
	var reused, lowered int64
	for _, st := range steps {
		_, snap, err := analyzeSnapshot(ts.URL, st.files, 1)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		r, l := snap.Counter(obs.MFrontendReused), snap.Counter(obs.MFrontendLowered)
		if r != st.reused || l != st.lowered {
			t.Errorf("%s: %d files reused, %d lowered; want %d, %d", st.name, r, l, st.reused, st.lowered)
		}
		reused, lowered = reused+r, lowered+l
	}
	fams := scrapeMetrics(t, ts.URL)
	if v, _ := fams.Value("rid_frontend_files_reused_total", nil); int64(v) != reused {
		t.Errorf("/metrics frontend_files_reused_total = %v, want %d", v, reused)
	}
	if v, _ := fams.Value("rid_frontend_files_lowered_total", nil); int64(v) != lowered {
		t.Errorf("/metrics frontend_files_lowered_total = %v, want %d", v, lowered)
	}

	const clients, edits = 8, 4
	trees := make([]map[string]string, edits)
	want := make([]string, edits)
	for i := range trees {
		trees[i] = editTree(t, base, 3*i, 10+i)
		want[i] = coldReport(t, trees[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each client sends its own edit, then its neighbour's.
			for _, tree := range []int{i % edits, (i + 1) % edits} {
				ar, _, err := analyzeSnapshot(ts.URL, trees[tree], 1+i%2)
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", i, err)
					return
				}
				if ar.Report != want[tree] {
					errs <- fmt.Errorf("client %d (edit %d): report differs from a cold run of its tree", i, tree)
					return
				}
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
