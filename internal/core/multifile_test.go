package core

import (
	"context"
	"testing"

	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/spec"
)

func TestAnalyzeFilesMatchesLinked(t *testing.T) {
	files := map[string]string{
		"wrapper.c": `
int ss_get(struct ss_iface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
void ss_put(struct ss_iface *intf) {
    pm_runtime_put_sync(&intf->dev);
}
`,
		"driver.c": `
int op(struct ss_iface *intf, struct device *aux) {
    int result;
    result = ss_get(intf);
    if (result)
        goto error;
    result = create_thing(aux);
    if (result)
        goto error;
    ss_put(intf);
error:
    return result;
}
`,
	}
	multi, err := AnalyzeFiles(context.Background(), lowerEach(t, files), spec.LinuxDPM(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Linked analysis for comparison.
	linked := files["wrapper.c"] + files["driver.c"]
	prog, err := lower.SourceString("all.c", linked)
	if err != nil {
		t.Fatal(err)
	}
	full := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{})

	if len(multi.Reports) != len(full.Reports) {
		t.Fatalf("multi %d reports, linked %d", len(multi.Reports), len(full.Reports))
	}
	for i := range multi.Reports {
		if multi.Reports[i].Key() != full.Reports[i].Key() {
			t.Errorf("report %d: %s vs %s", i, multi.Reports[i], full.Reports[i])
		}
	}
	// The wrapper's summary was computed in its own group and carried.
	if !multi.DB.Has("ss_get") {
		t.Error("wrapper summary missing from the shared database")
	}
}

func TestAnalyzeFilesMutualDependency(t *testing.T) {
	// a.c and b.c call into each other: one SCC, linked and analyzed
	// together without error.
	files := map[string]string{
		"a.c": `
int af(struct device *dev, int n) {
    if (n == 0) {
        pm_runtime_get(dev);
        pm_runtime_put(dev);
        return 0;
    }
    return bf(dev, n);
}
`,
		"b.c": `
int bf(struct device *dev, int n) {
    if (n == 0)
        return 0;
    return af(dev, n);
}
`,
	}
	res, err := AnalyzeFiles(context.Background(), lowerEach(t, files), spec.LinuxDPM(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FuncsTotal != 2 {
		t.Errorf("functions: %d", res.Stats.FuncsTotal)
	}
}

// lowerEach lowers every file on its own, the input shape of AnalyzeFiles.
func lowerEach(t *testing.T, files map[string]string) map[string]*ir.Program {
	t.Helper()
	progs := make(map[string]*ir.Program, len(files))
	for n, src := range files {
		p, err := lower.SourceString(n, src)
		if err != nil {
			t.Fatal(err)
		}
		progs[n] = p
	}
	return progs
}

// analyzeStored analyzes src, lowered as file name, with dir as the
// summary store, and returns the result and the run's store misses — the
// number of functions actually re-analyzed (Stats.FuncsAnalyzed also
// counts store hits).
func analyzeStored(t *testing.T, dir, name, src string) (*Result, int64) {
	t.Helper()
	prog, err := lower.SourceString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{CacheDir: dir, Obs: obs.New(nil, reg)})
	return res, reg.Counter(obs.MStoreMisses)
}

// TestIncrementalEquivalence is the §5.4 recheck on the summary store:
// after a one-function fix, only that function misses the store, and the
// warm run matches a cold run byte for byte. The fixed source is saved
// under another file name and shifts unrelated down two lines; neither
// costs a miss.
func TestIncrementalEquivalence(t *testing.T) {
	buggy := `
int wrapper_get(struct device *dev) {
    return pm_runtime_get_sync(dev);
}

int op(struct device *dev) {
    int ret;
    ret = wrapper_get(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}

int unrelated(struct device *dev) {
    pm_runtime_get(dev);
    pm_runtime_put(dev);
    return 0;
}
`
	dir := t.TempDir()
	first, _ := analyzeStored(t, dir, "v1.c", buggy)
	if len(first.Reports) != 1 || first.Reports[0].Fn != "op" {
		t.Fatalf("v1 reports: %v", first.Reports)
	}

	// Fix op (balance the error path); wrapper_get and unrelated are
	// untouched.
	fixed := `
int wrapper_get(struct device *dev) {
    return pm_runtime_get_sync(dev);
}

int op(struct device *dev) {
    int ret;
    ret = wrapper_get(dev);
    if (ret < 0) {
        pm_runtime_put_noidle(dev);
        return ret;
    }
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}

int unrelated(struct device *dev) {
    pm_runtime_get(dev);
    pm_runtime_put(dev);
    return 0;
}
`
	warm, misses := analyzeStored(t, dir, "v2.c", fixed)
	cold, _ := analyzeStored(t, "", "v2.c", fixed)
	if got, want := renderRun(warm), renderRun(cold); got != want {
		t.Errorf("warm recheck differs from a cold run:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
	// Only op was affected: one function re-analyzed instead of three.
	if misses != 1 {
		t.Errorf("re-analyzed %d functions, want 1", misses)
	}
	if cold.Stats.FuncsAnalyzed != 3 {
		t.Errorf("full analysis covered %d, want 3", cold.Stats.FuncsAnalyzed)
	}
}

func TestIncrementalCallerReanalyzed(t *testing.T) {
	// Changing the wrapper must re-analyze its caller too (the §5.4
	// recheck of callers once a summary changes).
	src := `
int wrapper_get(struct device *dev) {
    return pm_runtime_get_sync(dev);
}

int op(struct device *dev) {
    int ret;
    ret = wrapper_get(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}
`
	dir := t.TempDir()
	analyzeStored(t, dir, "v1.c", src)

	// "Fix" the wrapper to conditional semantics: op, written for the
	// transparent contract, is now clean — the recheck of the caller must
	// clear the report.
	fixedSrc := `
int wrapper_get(struct device *dev) {
    int status;
    status = pm_runtime_get_sync(dev);
    if (status < 0)
        pm_runtime_put_noidle(dev);
    return status;
}

int op(struct device *dev) {
    int ret;
    ret = wrapper_get(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}
`
	warm, misses := analyzeStored(t, dir, "v2.c", fixedSrc)
	if misses != 2 {
		t.Errorf("re-analyzed %d, want 2 (wrapper and its caller)", misses)
	}
	for _, r := range warm.Reports {
		t.Errorf("fixed program reported: %s", r)
	}
	cold, _ := analyzeStored(t, "", "v2.c", fixedSrc)
	if got, want := renderRun(warm), renderRun(cold); got != want {
		t.Errorf("warm recheck differs from a cold run:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}
