package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/sym"
)

// cacheSrc has one real IPP bug (drv_op's error path returns with the
// count still elevated, indistinguishable from a do_transfer failure on
// the balanced path) plus correct neighbors reached through helpers, so
// warm runs must reproduce both the report and its absence, across
// multiple digest levels.
const cacheSrc = `
extern int do_transfer(struct device *dev);

int helper_get(struct device *d) { return pm_runtime_get_sync(d); }
void helper_put(struct device *d) { pm_runtime_put(d); }

int ok_balanced(struct device *d) {
    int ret = helper_get(d);
    if (ret < 0) {
        helper_put(d);
        return ret;
    }
    helper_put(d);
    return 0;
}

int drv_op(struct device *d) {
    int ret;
    ret = pm_runtime_get_sync(d);
    if (ret < 0)
        return ret;
    ret = do_transfer(d);
    pm_runtime_put(d);
    return ret;
}
`

// analyzeCached runs cacheSrc with a cache directory and returns the
// result plus the run's registry.
func analyzeCached(t *testing.T, dir string, opts Options) (*Result, *obs.Registry) {
	t.Helper()
	prog, err := lower.SourceString("cache.c", cacheSrc)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	reg := obs.NewRegistry()
	opts.CacheDir = dir
	opts.Obs = obs.New(nil, reg)
	return Analyze(context.Background(), prog, spec.LinuxDPM(), opts), reg
}

// renderRun flattens the externally visible outcome for byte comparison.
func renderRun(res *Result) string {
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

// entryFiles lists every committed store entry under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	if _, err := os.Stat(filepath.Join(dir, "entries")); os.IsNotExist(err) {
		return nil // the store was never opened
	}
	err := filepath.WalkDir(filepath.Join(dir, "entries"), func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".sum") {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk store: %v", err)
	}
	return out
}

func TestCacheWarmRunIdentical(t *testing.T) {
	dir := t.TempDir()
	cold, creg := analyzeCached(t, dir, Options{})
	if h := creg.Counter(obs.MStoreHits); h != 0 {
		t.Fatalf("cold run had %d store hits", h)
	}
	if len(entryFiles(t, dir)) == 0 {
		t.Fatal("cold run saved no entries")
	}
	warm, wreg := analyzeCached(t, dir, Options{})
	if got, want := renderRun(warm), renderRun(cold); got != want {
		t.Errorf("warm output differs from cold:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
	if warm.Stats.PathsEnumerated != cold.Stats.PathsEnumerated || warm.Stats.FuncsAnalyzed != cold.Stats.FuncsAnalyzed {
		t.Errorf("warm stats differ: %+v vs %+v", warm.Stats, cold.Stats)
	}
	h, m := wreg.Counter(obs.MStoreHits), wreg.Counter(obs.MStoreMisses)
	if h == 0 || m != 0 {
		t.Errorf("warm run hits/misses = %d/%d, want all hits", h, m)
	}
	if wreg.Snapshot().Phase(obs.PhaseCacheIO).Count == 0 {
		t.Error("warm run recorded no cacheio spans")
	}
}

func TestCacheCorruptEntriesFallBackCold(t *testing.T) {
	dir := t.TempDir()
	cold, _ := analyzeCached(t, dir, Options{})
	for _, p := range entryFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0x20 // flip a payload byte; checksum catches it
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm, wreg := analyzeCached(t, dir, Options{})
	if got, want := reportsOnly(warm), reportsOnly(cold); got != want {
		t.Errorf("reports changed after corruption:\n--- corrupt-warm ---\n%s--- cold ---\n%s", got, want)
	}
	if h := wreg.Counter(obs.MStoreHits); h != 0 {
		t.Errorf("corrupt entries produced %d hits", h)
	}
	var invalid int
	for _, d := range warm.Diagnostics {
		if d.Kind == DegradeCacheInvalid {
			invalid++
			if !strings.Contains(d.Cause, "checksum") {
				t.Errorf("cache-invalid cause = %q, want checksum mention", d.Cause)
			}
		}
	}
	if invalid == 0 {
		t.Error("no cache-invalid diagnostics for corrupted entries")
	}
	// The cold re-analysis repaired the store in place.
	again, areg := analyzeCached(t, dir, Options{})
	if areg.Counter(obs.MStoreMisses) != 0 {
		t.Error("store not repaired by the fallback run")
	}
	if reportsOnly(again) != reportsOnly(cold) {
		t.Error("repaired run differs from cold")
	}
}

func reportsOnly(res *Result) string {
	var b strings.Builder
	for _, r := range res.ReportsByFunction() {
		b.WriteString(r.String())
		b.WriteByte('\n')
		b.WriteString(r.Detail())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestCacheVersionSkewFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	cold, _ := analyzeCached(t, dir, Options{})
	for _, p := range entryFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		skewed := strings.Replace(string(data),
			fmt.Sprintf("RIDSUM %d ", store.FormatVersion), "RIDSUM 99 ", 1)
		if err := os.WriteFile(p, []byte(skewed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm, _ := analyzeCached(t, dir, Options{})
	if reportsOnly(warm) != reportsOnly(cold) {
		t.Error("reports changed under version skew")
	}
	var invalid int
	for _, d := range warm.Diagnostics {
		if d.Kind == DegradeCacheInvalid {
			invalid++
			if !strings.Contains(d.Cause, "version") {
				t.Errorf("cause = %q, want version mention", d.Cause)
			}
		}
	}
	if invalid == 0 {
		t.Error("no cache-invalid diagnostics under version skew")
	}
}

func TestCacheOptionsChangeIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	analyzeCached(t, dir, Options{})
	// Scheduling options do NOT change digests: a Workers=4 run hits the
	// Workers=1 run's entries.
	_, preg := analyzeCached(t, dir, Options{Workers: 4})
	if h, m := preg.Counter(obs.MStoreHits), preg.Counter(obs.MStoreMisses); h == 0 || m != 0 {
		t.Errorf("Workers=4 warm run hits/misses = %d/%d, want all hits", h, m)
	}
	// Different result-determining options: the fingerprint folds into the
	// digests, so every lookup is an ordinary miss — no diagnostic spam.
	warm, wreg := analyzeCached(t, dir, Options{MaxCat2Conds: 7})
	if h := wreg.Counter(obs.MStoreHits); h != 0 {
		t.Errorf("options change still hit %d entries", h)
	}
	for _, d := range warm.Diagnostics {
		if d.Kind == DegradeCacheInvalid {
			t.Errorf("options change produced a cache-invalid diagnostic: %s", d)
		}
	}
}

// TestCacheReplayTakesPositionsFromIR: entries hold no positions, so a
// warm run over a moved and renamed source still hits every entry, and
// the replayed report names the new file and line.
func TestCacheReplayTakesPositionsFromIR(t *testing.T) {
	dir := t.TempDir()
	analyzeCached(t, dir, Options{})
	analyze := func(cacheDir string) (*Result, *obs.Registry) {
		prog, err := lower.SourceString("moved.c", "/* moved */\n\n"+cacheSrc)
		if err != nil {
			t.Fatalf("lower: %v", err)
		}
		reg := obs.NewRegistry()
		return Analyze(context.Background(), prog, spec.LinuxDPM(),
			Options{CacheDir: cacheDir, Obs: obs.New(nil, reg)}), reg
	}
	warm, wreg := analyze(dir)
	cold, _ := analyze("")
	if h, m := wreg.Counter(obs.MStoreHits), wreg.Counter(obs.MStoreMisses); h == 0 || m != 0 {
		t.Errorf("moved-source warm run hits/misses = %d/%d, want all hits", h, m)
	}
	if len(warm.Reports) == 0 || warm.Reports[0].SrcFile != "moved.c" {
		t.Fatalf("replayed reports do not name the new file: %v", warm.Reports)
	}
	if got, want := renderRun(warm), renderRun(cold); got != want {
		t.Errorf("replayed output differs from a cold run:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}

func TestCacheParallelWarmIdentical(t *testing.T) {
	dir := t.TempDir()
	cold, _ := analyzeCached(t, dir, Options{Workers: 4})
	warm, wreg := analyzeCached(t, dir, Options{Workers: 4})
	if renderRun(warm) != renderRun(cold) {
		t.Error("parallel warm run differs from parallel cold run")
	}
	if h, m := wreg.Counter(obs.MStoreHits), wreg.Counter(obs.MStoreMisses); h == 0 || m != 0 {
		t.Errorf("parallel warm run hits/misses = %d/%d, want all hits", h, m)
	}
}

func TestCacheProvenanceBypassesStore(t *testing.T) {
	dir := t.TempDir()
	res, reg := analyzeCached(t, dir, Options{Provenance: true})
	if h, m := reg.Counter(obs.MStoreHits), reg.Counter(obs.MStoreMisses); h != 0 || m != 0 {
		t.Errorf("provenance run touched the store: hits=%d misses=%d", h, m)
	}
	if len(entryFiles(t, dir)) != 0 {
		t.Error("provenance run wrote store entries")
	}
	var withEvidence int
	for _, r := range res.Reports {
		if r.Evidence != nil {
			withEvidence++
		}
	}
	if withEvidence == 0 {
		t.Error("provenance run produced no evidence")
	}
}

func TestCacheTransientOutcomesNotStored(t *testing.T) {
	// Wall-clock-shaped outcomes (timeout, panic, cancellation) must never
	// be persisted: replaying them would pin a transient degradation.
	st, err := store.Open(t.TempDir(), store.Fingerprint{MaxPaths: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.SourceString("f.c", "int f(int x) { return x; }")
	if err != nil {
		t.Fatal(err)
	}
	d := store.Digest{5}
	c := &cacheState{store: st, syms: sym.NewTable(), prog: prog, digests: map[string]store.Digest{"f": d}}
	sum := summary.Default(sym.NewTable(), "f")
	for _, out := range []funcOutcome{
		{sum: sum, timedOut: true},
		{sum: sum, panicked: true},
		{sum: sum, canceled: true},
	} {
		if diag := c.save("f", out); diag != nil {
			t.Fatalf("save of transient outcome returned diagnostic: %v", diag)
		}
		if e, lerr := st.Load(sym.NewTable(), "f", d); e != nil || lerr != nil {
			t.Fatalf("transient outcome was persisted: (%v, %v)", e, lerr)
		}
	}
	// A truncated (budget-limited) outcome IS stored, diagnostics intact.
	out := funcOutcome{sum: sum, trunc: true, paths: 3,
		diags: []Diagnostic{{Fn: "f", Kind: DegradePathBudget, Cause: "truncated"}}}
	if diag := c.save("f", out); diag != nil {
		t.Fatalf("save returned diagnostic: %v", diag)
	}
	got, hit, diag := c.load("f")
	if diag != nil || !hit {
		t.Fatalf("load = hit=%v diag=%v, want hit", hit, diag)
	}
	if !got.trunc || len(got.diags) != 1 || got.diags[0].Kind != DegradePathBudget {
		t.Errorf("replayed outcome lost its truncation record: %+v", got)
	}
}

func TestParseDegradeKindRoundTrip(t *testing.T) {
	for k := DegradePathBudget; k <= DegradeCacheInvalid; k++ {
		got, ok := ParseDegradeKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseDegradeKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseDegradeKind("warp-core-breach"); ok {
		t.Error("unknown kind parsed")
	}
}
