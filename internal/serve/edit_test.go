package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/experiments"
	"repro/internal/racebuild"
)

// TestServeResidentCopyOnMove runs two request streams over one daemon at
// once. One inserts blank lines at the top of a file, so every function
// in it moves while its digest stays; the other moves nothing. Resident
// hits are shared between the streams and copied only for the moved
// functions, so every reply must equal a fresh run of its own tree, and
// the moved functions must report their new lines.
func TestServeResidentCopyOnMove(t *testing.T) {
	base := experiments.ServeCorpus(1, 317)
	want := map[string]string{} // tree name → fresh run's report
	trees := map[string]map[string]string{"base": base}
	want["base"] = coldReport(t, base)
	// moved is the file of the base report's first line; every line of it
	// shifts below.
	moved, _, ok := strings.Cut(want["base"], ":")
	if !ok || base[moved] == "" {
		t.Fatalf("base report does not start with a tree file: %.80q", want["base"])
	}

	const steps = 4
	var shifting, still []string
	for k := 1; k <= steps; k++ {
		name := fmt.Sprint("shift", k)
		trees[name] = maps.Clone(base)
		trees[name][moved] = strings.Repeat("\n", k) + base[moved]
		shifting = append(shifting, name)
		name = fmt.Sprint("edit", k)
		trees[name] = editTree(t, base, 3*k, k)
		still = append(still, name)
	}
	for _, name := range append(slices.Clone(shifting), still...) {
		want[name] = coldReport(t, trees[name])
	}
	for _, name := range shifting {
		if want[name] == want["base"] {
			t.Fatalf("%s: a fresh run reports what the base tree does; the shift moved no reported function", name)
		}
	}

	cfg := Config{MaxInflight: 4}
	cfg.Options.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg)
	if ar, _, err := analyzeCounted(ts.URL, base, 1); err != nil || ar.Report != want["base"] {
		t.Fatalf("populate: err %v, report equal %t", err, err == nil && ar.Report == want["base"])
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*steps)
	for _, stream := range [][]string{shifting, still} {
		wg.Add(1)
		go func(stream []string) {
			defer wg.Done()
			for _, name := range stream {
				ar, c, err := analyzeCounted(ts.URL, trees[name], 2)
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s: %v", name, err)
				case c.resident == 0:
					errs <- fmt.Errorf("%s: no resident hit", name)
				case ar.Report != want[name]:
					errs <- fmt.Errorf("%s: report differs from a fresh run of its tree", name)
				}
			}
		}(stream)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The shifts did not reach the shared entries: the base tree still
	// reports its own lines.
	if ar, _, err := analyzeCounted(ts.URL, base, 1); err != nil || ar.Report != want["base"] {
		t.Errorf("base after the streams: err %v, report equal %t", err, err == nil && ar.Report == want["base"])
	}
}

// driverEditSites is the end of the header line of each labelled driver
// function of c ("int f(...) {"), in file order. A statement inserted
// there changes that function's digest, and its callers', but no line.
func driverEditSites(c *kernelgen.Corpus) (files []string, offs []int) {
	names := make([]string, 0, len(c.Files))
	for n := range c.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		off := 0
		for _, line := range strings.SplitAfter(c.Files[name], "\n") {
			head := strings.TrimSuffix(line, "\n")
			end := off + len(head)
			off += len(line)
			open := strings.IndexByte(head, '(')
			if open < 0 || !strings.HasSuffix(head, "{") || strings.HasPrefix(head, " ") {
				continue
			}
			if f := strings.Fields(head[:open]); len(f) > 0 {
				if _, labelled := c.Truth[f[len(f)-1]]; labelled {
					files, offs = append(files, name), append(offs, end)
				}
			}
		}
	}
	return files, offs
}

// TestEditRequestAllocs bounds what a warm `rid serve` request costs when
// one function changed: a scale-1 tree is analyzed into a summary store,
// then 40 requests each edit one driver function. Unchanged functions
// keep their lowered IR and its digest (frontend memo) and replay the
// shared resident entry, so a request allocates for what changed, not for
// the whole tree. The count covers the in-process client as well.
func TestEditRequestAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const limit = 1730 // 1,505 measured, plus 15%
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 317, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 200,
	})
	files, offs := driverEditSites(c)
	if len(files) == 0 {
		t.Fatal("no labelled driver functions")
	}
	body := func(id int) []byte {
		tree := maps.Clone(c.Files)
		site := id % len(files)
		src := c.Files[files[site]]
		tree[files[site]] = src[:offs[site]] + fmt.Sprintf(" int serve_edit = %d;", id) + src[offs[site]:]
		data, err := json.Marshal(&AnalyzeRequest{Files: tree})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cfg := Config{}
	cfg.Options.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg)
	base, err := json.Marshal(&AnalyzeRequest{Files: c.Files})
	if err != nil {
		t.Fatal(err)
	}
	post := func(data []byte) []byte {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v: %.200s", resp.StatusCode, err, out)
		}
		return out
	}
	post(base) // populate the store cold
	for id := 0; id < 2; id++ {
		post(body(1000 + id)) // fill the pools
	}

	const edits = 40
	reqs := make([][]byte, edits)
	for i := range reqs {
		reqs[i] = body(i)
	}
	replies := make([][]byte, edits)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, data := range reqs {
		replies[i] = post(data)
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.Mallocs-m0.Mallocs) / edits

	var first AnalyzeResponse
	for i, data := range replies {
		var ar AnalyzeResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = ar
		}
		// An edit moves no line, so every tree reports the same bytes.
		if ar.Report != first.Report || ar.FuncsTotal == 0 {
			t.Fatalf("edit %d: report differs from edit 0's or no functions (%d)", i, ar.FuncsTotal)
		}
	}
	t.Logf("%.0f allocations per one-function edit request over %d functions", per, first.FuncsTotal)
	if per > limit {
		t.Errorf("%.0f allocations per edit request, want at most %d", per, limit)
	}
}
