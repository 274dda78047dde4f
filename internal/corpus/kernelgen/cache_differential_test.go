package kernelgen

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/store"
)

// buildFiles lowers a raw file map into a program.
func buildFiles(t testing.TB, files map[string]string) *ir.Program {
	t.Helper()
	prog, err := lower.Program(files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func analyzeFiles(t testing.TB, files map[string]string, cacheDir string, workers int) (*core.Result, *obs.Registry) {
	t.Helper()
	return analyzeResident(t, files, cacheDir, workers, nil)
}

// analyzeResident is analyzeFiles with a resident tier in front of the
// store, as a long-lived process runs.
func analyzeResident(t testing.TB, files map[string]string, cacheDir string, workers int, r *store.Resident) (*core.Result, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	res := core.Analyze(context.Background(), buildFiles(t, files), spec.LinuxDPM(),
		core.Options{Workers: workers, CacheDir: cacheDir, Resident: r, Obs: obs.New(nil, reg)})
	return res, reg
}

// renderOutcome flattens reports (with full detail) and diagnostics for
// byte comparison.
func renderOutcome(res *core.Result) string {
	var b strings.Builder
	for _, r := range res.ReportsByFunction() {
		b.WriteString(r.String())
		b.WriteByte('\n')
		b.WriteString(r.Detail())
		b.WriteByte('\n')
	}
	for _, d := range res.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// mutateFiles returns base with a random subset of files replaced by the
// same-named files of variant (generated from the same Config at another
// seed, so the file name partition is identical but bodies — and driver
// names — differ). At least one file is replaced and at least one kept.
func mutateFiles(t *testing.T, base, variant map[string]string, rngSeed int64) map[string]string {
	t.Helper()
	if len(base) != len(variant) {
		t.Fatalf("file sets differ in size: %d vs %d", len(base), len(variant))
	}
	names := make([]string, 0, len(base))
	for n := range base {
		if _, ok := variant[n]; !ok {
			t.Fatalf("variant corpus lacks file %s", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(rngSeed))
	out := make(map[string]string, len(base))
	replaced := 0
	for _, n := range names {
		if rng.Intn(100) < 40 && base[n] != variant[n] {
			out[n] = variant[n]
			replaced++
		} else {
			out[n] = base[n]
		}
	}
	if replaced == 0 || replaced == len(names) {
		t.Fatalf("degenerate mutation: %d of %d files replaced", replaced, len(names))
	}
	t.Logf("mutated %d of %d files", replaced, len(names))
	return out
}

// shiftAndRename returns files with a comment line prepended to each and
// every file moved under a new directory: every position changes, no code
// does.
func shiftAndRename(files map[string]string) map[string]string {
	out := make(map[string]string, len(files))
	for n, src := range files {
		out["moved/"+n] = "/* moved */\n" + src
	}
	return out
}

// TestCacheWarmStartDifferential is the randomized warm-start oracle: a
// cold run populates the store from corpus A, a random subset of A's
// files is then replaced with differently-seeded bodies, and the
// warm-start run over the mutated corpus must be byte-identical — reports
// and diagnostics — to a from-scratch run, at one worker and at four.
// The warm run must also actually exercise the partial-hit path: some
// functions served from the store, some re-analyzed. Finally the mutated
// corpus, shifted down a line and moved to another directory, must replay
// entirely from the store and still match a from-scratch run: entries
// carry no positions, and replay takes them from the current IR. The
// same three runs through one resident tier must match the disk-only
// runs byte for byte and count for count.
func TestCacheWarmStartDifferential(t *testing.T) {
	cfgA := Config{Seed: 71, Mix: smallMix(), SimpleHelpers: 8, ComplexHelpers: 5, OtherFuncs: 30}
	cfgB := cfgA
	cfgB.Seed = 72
	a := Generate(cfgA)
	b := Generate(cfgB)
	mutated := mutateFiles(t, a.Files, b.Files, 1)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			cold, creg := analyzeFiles(t, a.Files, dir, workers)
			if len(cold.Reports) == 0 {
				t.Fatal("cold corpus produced no reports; the oracle is vacuous")
			}

			warm, wreg := analyzeFiles(t, mutated, dir, workers)
			scratch, _ := analyzeFiles(t, mutated, "", workers)

			if got, want := renderOutcome(warm), renderOutcome(scratch); got != want {
				t.Errorf("warm-start output differs from from-scratch:\n--- warm ---\n%s--- scratch ---\n%s", got, want)
			}
			h, m := wreg.Counter(obs.MStoreHits), wreg.Counter(obs.MStoreMisses)
			if h == 0 || m == 0 {
				t.Errorf("warm run hits/misses = %d/%d; the mutation should hit some entries and miss others", h, m)
			}

			moved := shiftAndRename(mutated)
			replay, rreg := analyzeFiles(t, moved, dir, workers)
			fresh, _ := analyzeFiles(t, moved, "", workers)
			if got, want := renderOutcome(replay), renderOutcome(fresh); got != want {
				t.Errorf("shifted and renamed replay differs from from-scratch:\n--- replay ---\n%s--- scratch ---\n%s", got, want)
			}
			if h, m := rreg.Counter(obs.MStoreHits), rreg.Counter(obs.MStoreMisses); h == 0 || m != 0 {
				t.Errorf("shifted and renamed run hits/misses = %d/%d, want all hits", h, m)
			}

			resident, rdir := store.NewResident(), t.TempDir()
			disk := []struct {
				files map[string]string
				res   *core.Result
				reg   *obs.Registry
			}{{a.Files, cold, creg}, {mutated, warm, wreg}, {moved, replay, rreg}}
			for i, d := range disk {
				res, reg := analyzeResident(t, d.files, rdir, workers, resident)
				if got, want := renderOutcome(res), renderOutcome(d.res); got != want {
					t.Errorf("run %d through the resident tier differs from the disk-only run:\n--- resident ---\n%s--- disk ---\n%s", i, got, want)
				}
				h, m, rh := reg.Counter(obs.MStoreHits), reg.Counter(obs.MStoreMisses), reg.Counter(obs.MResidentHits)
				if dh, dm := d.reg.Counter(obs.MStoreHits), d.reg.Counter(obs.MStoreMisses); h != dh || m != dm {
					t.Errorf("run %d hits/misses = %d/%d through the resident tier, %d/%d from disk", i, h, m, dh, dm)
				}
				// Every hit is of an entry an earlier run read or wrote.
				if rh != h {
					t.Errorf("run %d: %d of %d hits from memory, want all", i, rh, h)
				}
			}
		})
	}
}

// TestCacheExplainUnaffected pins that provenance capture (`rid explain`)
// bypasses the store: the rendered evidence over the mutated corpus is
// byte-identical whether or not a populated cache directory is
// configured.
func TestCacheExplainUnaffected(t *testing.T) {
	cfgA := Config{Seed: 71, Mix: smallMix(), SimpleHelpers: 8, ComplexHelpers: 5, OtherFuncs: 30}
	cfgB := cfgA
	cfgB.Seed = 72
	a := Generate(cfgA)
	mutated := mutateFiles(t, a.Files, Generate(cfgB).Files, 1)

	dir := t.TempDir()
	analyzeFiles(t, a.Files, dir, 1) // populate the store

	explain := func(cacheDir string) string {
		res := core.Analyze(context.Background(), buildFiles(t, mutated), spec.LinuxDPM(),
			core.Options{CacheDir: cacheDir, Provenance: true})
		var buf bytes.Buffer
		if err := report.WriteExplain(&buf, res.ReportsByFunction()); err != nil {
			t.Fatalf("WriteExplain: %v", err)
		}
		return buf.String()
	}
	withCache := explain(dir)
	without := explain("")
	if withCache == "" {
		t.Fatal("explain produced no output; the oracle is vacuous")
	}
	if withCache != without {
		t.Error("explain output differs when a cache directory is configured")
	}
}
