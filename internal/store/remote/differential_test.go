package remote_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus/kernelgen"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store/remote"
	"repro/internal/store/storetest"
)

// testCorpus generates a small randomized driver corpus with every
// pattern class represented.
func testCorpus(seed int64) *kernelgen.Corpus {
	return kernelgen.Generate(kernelgen.Config{
		Seed: seed,
		Mix: kernelgen.Mix{
			CorrectBalanced:   6,
			CorrectErrHandled: 4,
			CorrectWrapperUse: 4,
			CorrectHeld:       3,
			BugGetErrReturn:   5,
			BugWrapperErrPath: 3,
			BugWrapperMisuse:  3,
			BugDoublePut:      2,
			BugIRQStyle:       3,
			BugAsymmetricErr:  3,
			BugLoopErrPath:    2,
			CorrectLoop:       2,
			CorrectSwitch:     2,
			BugDeepWrapper:    2,
			FPBitmask:         4,
		},
		SimpleHelpers:  8,
		ComplexHelpers: 5,
		OtherFuncs:     30,
	})
}

// buildFiles lowers a raw file map into a program.
func buildFiles(t testing.TB, files map[string]string) *ir.Program {
	t.Helper()
	prog, err := lower.Program(files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func analyzeFiles(t testing.TB, files map[string]string, cacheDir, cacheURL string, workers int) (*core.Result, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	res := core.Analyze(context.Background(), buildFiles(t, files), spec.LinuxDPM(),
		core.Options{Workers: workers, CacheDir: cacheDir, CacheURL: cacheURL, Obs: obs.New(nil, reg)})
	return res, reg
}

// renderReports flattens the reports (with full detail) for byte
// comparison.
func renderReports(res *core.Result) string {
	var b strings.Builder
	for _, r := range res.ReportsByFunction() {
		b.WriteString(r.String())
		b.WriteByte('\n')
		b.WriteString(r.Detail())
		b.WriteByte('\n')
	}
	return b.String()
}

// renderOutcome adds the diagnostics — the full observable analysis
// outcome.
func renderOutcome(res *core.Result) string {
	var b strings.Builder
	b.WriteString(renderReports(res))
	for _, d := range res.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func hasCacheRemoteDiag(res *core.Result) bool {
	for _, d := range res.Diagnostics {
		if d.Kind == core.DegradeCacheRemote {
			return true
		}
	}
	return false
}

func countEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(filepath.Join(dir, "entries"), func(path string, de os.DirEntry, err error) error { //nolint:errcheck // absent dir = 0 entries
		if err == nil && !de.IsDir() && strings.HasSuffix(path, ".sum") {
			n++
		}
		return nil
	})
	return n
}

// TestRemoteWarmStartDifferential is the fleet-cache analogue of the
// local warm-start oracle: the same corpus analyzed from scratch,
// cold-local, warm-local, cold-through-the-fleet, and warm-from-an-empty
// -local-dir (every hit served over the wire) must produce byte-identical
// reports and diagnostics, at one worker and at four. A final run against
// a store that dies mid-analysis must still produce the same reports —
// degraded to local analysis with a cache-remote diagnostic, never a
// wrong answer.
func TestRemoteWarmStartDifferential(t *testing.T) {
	corpus := testCorpus(71)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			scratch, _ := analyzeFiles(t, corpus.Files, "", "", workers)
			if len(scratch.Reports) == 0 {
				t.Fatal("corpus produced no reports; the oracle is vacuous")
			}
			want := renderOutcome(scratch)

			// Cold and warm against a purely local store.
			localDir := t.TempDir()
			cold, _ := analyzeFiles(t, corpus.Files, localDir, "", workers)
			warmLocal, wlreg := analyzeFiles(t, corpus.Files, localDir, "", workers)
			if got := renderOutcome(cold); got != want {
				t.Errorf("cold-local differs from scratch:\n--- cold ---\n%s--- scratch ---\n%s", got, want)
			}
			if got := renderOutcome(warmLocal); got != want {
				t.Errorf("warm-local differs from scratch:\n--- warm ---\n%s--- scratch ---\n%s", got, want)
			}
			if h := wlreg.Counter(obs.MStoreHits); h == 0 {
				t.Error("warm-local run had no store hits")
			}

			// Cold through the fleet: empty local tier, empty server; the
			// write-behind publishes everything before Analyze returns.
			serverDir, url := startServer(t, remote.ServerConfig{})
			coldRemote, crreg := analyzeFiles(t, corpus.Files, t.TempDir(), url, workers)
			if got := renderOutcome(coldRemote); got != want {
				t.Errorf("cold-remote differs from scratch:\n--- cold-remote ---\n%s--- scratch ---\n%s", got, want)
			}
			if p := crreg.Counter(obs.MRemotePuts); p == 0 {
				t.Error("cold-remote run published nothing to the fleet store")
			}
			if n := countEntries(t, serverDir); n == 0 {
				t.Fatal("server store is empty after the cold-remote run")
			}

			// Warm from the fleet alone: a fresh, empty local dir, so every
			// hit crosses the wire.
			warmRemote, wrreg := analyzeFiles(t, corpus.Files, t.TempDir(), url, workers)
			if got := renderOutcome(warmRemote); got != want {
				t.Errorf("warm-remote differs from scratch:\n--- warm-remote ---\n%s--- scratch ---\n%s", got, want)
			}
			if h := wrreg.Counter(obs.MRemoteHits); h == 0 {
				t.Error("warm-remote run had no remote hits")
			}
			if hasCacheRemoteDiag(warmRemote) {
				t.Error("healthy warm-remote run carries a cache-remote diagnostic")
			}

			// The store dies mid-run (a proxy that severs every connection
			// after the first few requests): reports must match scratch
			// exactly, and the degradation must be surfaced.
			proxy := storetest.NewFlakyProxy(t, url)
			proxy.KillAfter(3)
			killed, _ := analyzeFiles(t, corpus.Files, t.TempDir(), proxy.URL(), workers)
			if got := renderReports(killed); got != renderReports(scratch) {
				t.Errorf("reports after mid-run store death differ from scratch:\n--- killed ---\n%s--- scratch ---\n%s",
					got, renderReports(scratch))
			}
			if !hasCacheRemoteDiag(killed) {
				t.Error("mid-run store death produced no cache-remote diagnostic")
			}
		})
	}
}
