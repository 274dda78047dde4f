package pycgen

import (
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
	"repro/internal/spec"
)

// buildRawFiles lowers a raw file map into a program.
func buildRawFiles(t testing.TB, files map[string]string) *ir.Program {
	t.Helper()
	prog, err := lower.Program(files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func analyzeRawFiles(t testing.TB, files map[string]string, cacheDir string, workers int) (*core.Result, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	res := core.Analyze(context.Background(), buildRawFiles(t, files), spec.PythonC(),
		core.Options{Workers: workers, CacheDir: cacheDir, Obs: obs.New(nil, reg)})
	return res, reg
}

func renderRawOutcome(res *core.Result) string {
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

// mutateModule replaces a random subset of base's files with the
// same-named files of variant. Same Config at a different seed yields the
// same file-name partition but reshuffled classes and different function
// names, so replaced files both drop old entries and demand new ones.
func mutateModule(t *testing.T, base, variant map[string]string, rngSeed int64) map[string]string {
	t.Helper()
	if len(base) != len(variant) {
		t.Fatalf("file sets differ in size: %d vs %d", len(base), len(variant))
	}
	names := make([]string, 0, len(base))
	for n := range base {
		if _, ok := variant[n]; !ok {
			t.Fatalf("variant module lacks file %s", n)
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

// TestCacheWarmStartDifferentialPythonC is the Python/C twin of the
// kernelgen warm-start oracle: cold run over module A populates the
// store, a random subset of A's files is swapped for differently-seeded
// bodies, and the warm-start run over the mutated module must be
// byte-identical to a from-scratch run at one worker and at four, while
// actually exercising both store hits and misses.
func TestCacheWarmStartDifferentialPythonC(t *testing.T) {
	mix := Mix{Common: 12, RIDOnly: 12, CpyOnly: 8, Correct: 18}
	a := Generate(Config{Name: "krbV", Seed: 71, Mix: mix})
	b := Generate(Config{Name: "krbV", Seed: 72, Mix: mix})
	mutated := mutateModule(t, a.Files, b.Files, 5)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			cold, _ := analyzeRawFiles(t, a.Files, dir, workers)
			if len(cold.Reports) == 0 {
				t.Fatal("cold module produced no reports; the oracle is vacuous")
			}

			warm, wreg := analyzeRawFiles(t, mutated, dir, workers)
			scratch, _ := analyzeRawFiles(t, mutated, "", workers)

			if got, want := renderRawOutcome(warm), renderRawOutcome(scratch); got != want {
				t.Errorf("warm-start output differs from from-scratch:\n--- warm ---\n%s--- scratch ---\n%s", got, want)
			}
			h, m := wreg.Counter(obs.MStoreHits), wreg.Counter(obs.MStoreMisses)
			if h == 0 || m == 0 {
				t.Errorf("warm run hits/misses = %d/%d; the mutation should hit some entries and miss others", h, m)
			}
		})
	}
}
