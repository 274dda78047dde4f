package rid

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus/kernelgen"
)

const buggy = `
extern int pm_runtime_get_sync(struct device *dev);
extern int pm_runtime_put(struct device *dev);
extern int do_transfer(struct device *dev);

int drv_op(struct device *dev) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}
`

func TestAnalyzeBuggySource(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddSource("drv.c", buggy); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	b := res.Bugs[0]
	if b.Function != "drv_op" || b.Refcount != "[dev].pm" {
		t.Errorf("bug: %+v", b)
	}
	if b.Evidence == "" || b.File != "drv.c" || b.Line == 0 {
		t.Errorf("evidence/position missing: %+v", b)
	}
	if res.Categories.RefcountChanging != 1 {
		t.Errorf("categories: %+v", res.Categories)
	}
}

func TestAddDirAndFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "drivers")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "a.c"), []byte(buggy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "skip.h"), []byte("garbage !!"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := New(LinuxDPMSpecs())
	if err := a.AddDir(dir); err != nil {
		t.Fatal(err)
	}
	if a.NumFunctions() != 1 {
		t.Fatalf("functions loaded: %d", a.NumFunctions())
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestParseSpecsExtension(t *testing.T) {
	specs, err := LinuxDPMSpecs().Parse("extra", `
summary my_get(dev) {
  entry { cons: true; changes: [dev].pm += 1; return: [0]; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	a := New(specs)
	err = a.AddSource("x.c", `
int op(struct device *dev) {
    int ret;
    ret = my_get(dev);
    if (ret < 0)
        return ret;
    ret = work(dev);
    pm_runtime_put(dev);
    return ret;
}
extern int pm_runtime_put(struct device *dev);
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 1 {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestParseSpecsBadInput(t *testing.T) {
	if _, err := LinuxDPMSpecs().Parse("bad", "summary ???"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestParseErrorSurfaced(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddSource("bad.c", "int f( {"); err == nil {
		t.Fatal("expected syntax error")
	}
}

func TestBugsHelpers(t *testing.T) {
	bs := Bugs{
		{Function: "b"}, {Function: "a"}, {Function: "b"},
	}
	if got := bs.Functions(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Functions: %v", got)
	}
	if got := bs.ByFunction("b"); len(got) != 2 {
		t.Errorf("ByFunction: %v", got)
	}
}

func TestRunEscapeRule(t *testing.T) {
	a := New(PythonCSpecs())
	err := a.AddSource("m.c", `
int always_leak(PyObject *o) {
    Py_INCREF(o);
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	bugs, err := a.RunEscapeRule()
	if err != nil {
		t.Fatal(err)
	}
	if len(bugs) != 1 || bugs[0].Kind != "leak" || bugs[0].Function != "always_leak" {
		t.Fatalf("bugs: %v", bugs)
	}
	// RID misses this consistent leak — the complementarity of Table 2.
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 0 {
		t.Errorf("RID should miss the consistent leak: %v", res.Bugs)
	}
}

func TestWriteReportsFormats(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddSource("drv.c", buggy); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json", "sarif"} {
		var buf strings.Builder
		if err := res.WriteReports(&buf, format, true); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !strings.Contains(buf.String(), "drv_op") {
			t.Errorf("%s output missing function name", format)
		}
	}
	if err := res.WriteReports(io.Discard, "bogus", false); err == nil {
		t.Error("bogus format accepted")
	}
}

// TestWriteTextAllocs: rendering a result as text appends every report
// line, verbose evidence included, into one buffer. On kernelgen scale 1
// (137 reports) that is a handful of allocations, not one or more per
// report.
func TestWriteTextAllocs(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddSources(scaledCorpus(317, 1).Files); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) < 100 {
		t.Fatalf("%d reports, want the scale-1 corpus's 137", len(res.Bugs))
	}
	for _, verbose := range []bool{false, true} {
		if got := testing.AllocsPerRun(10, func() {
			res.WriteReports(io.Discard, "text", verbose) //nolint:errcheck // io.Discard never fails
		}); got > 16 {
			t.Errorf("verbose=%t: %v allocations to render %d reports, want ≤16", verbose, got, len(res.Bugs))
		}
	}
}

func TestSuppressOption(t *testing.T) {
	a := New(LinuxDPMSpecs())
	a.SetOptions(Options{Suppress: []string{"drv_op"}})
	if err := a.AddSource("drv.c", buggy); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bugs) != 0 {
		t.Errorf("suppressed function still reported: %v", res.Bugs)
	}
}

func TestFunctionCFG(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddSource("drv.c", buggy); err != nil {
		t.Fatal(err)
	}
	dot := a.FunctionCFG("drv_op")
	if !strings.Contains(dot, `digraph "drv_op"`) {
		t.Errorf("dot: %s", dot)
	}
	if a.FunctionCFG("nope") != "" {
		t.Error("unknown function must yield empty dot")
	}
}

func TestFunctionSummaryAccessor(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddSource("drv.c", buggy); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.FunctionSummary("drv_op"), "[dev].pm") {
		t.Errorf("summary: %q", res.FunctionSummary("drv_op"))
	}
	if res.FunctionSummary("nope") != "" {
		t.Error("unknown function must yield empty summary")
	}
}

func TestAddFileErrors(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddFile("/nonexistent/path.c"); err == nil {
		t.Error("missing file must error")
	}
	if err := a.AddDir("/nonexistent/dir"); err == nil {
		t.Error("missing dir must error")
	}
}

func TestPreserveBitTestsFacade(t *testing.T) {
	src := `
extern int pm_runtime_get(struct device *dev);
extern int pm_runtime_put(struct device *dev);
extern int do_transfer(struct device *dev);

void fp(struct device *dev, struct opts *o) {
    if (o->flags & 2)
        pm_runtime_get(dev);
    do_transfer(dev);
    if (o->flags & 2)
        pm_runtime_put(dev);
}
`
	plain := New(LinuxDPMSpecs())
	if err := plain.AddSource("m.c", src); err != nil {
		t.Fatal(err)
	}
	res1, _ := plain.Run()
	if len(res1.Bugs) == 0 {
		t.Fatal("paper abstraction must FP on the bitmask pattern")
	}

	ext := New(LinuxDPMSpecs())
	ext.SetOptions(Options{PreserveBitTests: true})
	if err := ext.AddSource("m.c", src); err != nil {
		t.Fatal(err)
	}
	res2, _ := ext.Run()
	if len(res2.Bugs) != 0 {
		t.Errorf("PreserveBitTests must kill the FP: %v", res2.Bugs)
	}
}

// TestRunContextCanceled verifies the facade surfaces graceful
// degradation: a dead context still yields a Result, marked Degraded,
// with a run-level "canceled" diagnostic that WriteDiagnostics renders.
func TestRunContextCanceled(t *testing.T) {
	a := New(LinuxDPMSpecs())
	if err := a.AddSource("drv.c", buggy); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := a.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() {
		t.Fatal("canceled run not marked degraded")
	}
	found := false
	for _, d := range res.Diagnostics {
		if d.Function == "" && d.Kind == "canceled" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no run-level canceled diagnostic: %v", res.Diagnostics)
	}
	var buf strings.Builder
	if err := res.WriteDiagnostics(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(run): canceled") {
		t.Errorf("rendered diagnostics: %q", buf.String())
	}
	var jb strings.Builder
	if err := res.WriteDiagnostics(&jb, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"kind":"canceled"`) {
		t.Errorf("json diagnostics: %q", jb.String())
	}
}

// TestFacadeBudgetDiagnostics drives the new Options knobs end to end:
// tight path budgets through the facade produce truncation counters and
// diagnostics, while a clean default run reports Degraded() == false.
func TestFacadeBudgetDiagnostics(t *testing.T) {
	src := `
int many_paths(struct device *dev, int a, int b, int c) {
    pm_runtime_get(dev);
    if (a) do_transfer(dev);
    if (b) do_transfer(dev);
    if (c) do_transfer(dev);
    pm_runtime_put(dev);
    return 0;
}
`
	a := New(LinuxDPMSpecs())
	a.SetOptions(Options{MaxPaths: 1})
	if err := a.AddSource("m.c", src); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FuncsTruncated != 1 || !res.Degraded() {
		t.Errorf("truncation not surfaced: truncated=%d diags=%v", res.FuncsTruncated, res.Diagnostics)
	}

	clean := New(LinuxDPMSpecs())
	if err := clean.AddSource("m.c", src); err != nil {
		t.Fatal(err)
	}
	cres, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cres.Degraded() {
		t.Errorf("default run degraded: %v", cres.Diagnostics)
	}
}

// TestRunSeparateMatchesLinked pins RunSeparate to the linked run: a
// wrapper in one file and its buggy caller in another give the same bugs
// and categories, Options.Suppress applies to both, and WriteSummaries
// carries the wrapper's derived summary.
func TestRunSeparateMatchesLinked(t *testing.T) {
	files := map[string]string{
		"w.c": `
int ss_get(struct ss_iface *intf) {
    int status;
    status = pm_runtime_get_sync(&intf->dev);
    if (status < 0)
        pm_runtime_put_sync(&intf->dev);
    if (status > 0)
        status = 0;
    return status;
}
void ss_put(struct ss_iface *intf) { pm_runtime_put_sync(&intf->dev); }
`,
		"d.c": `
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
	linked := New(LinuxDPMSpecs())
	for _, name := range []string{"w.c", "d.c"} {
		if err := linked.AddSource(name, files[name]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := linked.Run()
	if err != nil {
		t.Fatal(err)
	}
	a := New(LinuxDPMSpecs())
	got, err := a.RunSeparate(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bugs) != 1 || got.Bugs[0].String() != want.Bugs[0].String() || got.Categories != want.Categories {
		t.Fatalf("separate bugs %v categories %+v; linked %v %+v", got.Bugs, got.Categories, want.Bugs, want.Categories)
	}
	var sums strings.Builder
	if err := got.WriteSummaries(&sums); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sums.String(), "ss_get") {
		t.Fatalf("summary database missing the wrapper:\n%s", sums.String())
	}
	a.SetOptions(Options{Suppress: []string{"op"}})
	if res, err := a.RunSeparate(context.Background(), files); err != nil || len(res.Bugs) != 0 {
		t.Fatalf("suppressed separate run: %v, %v", res, err)
	}

	// Both modes lower with the same abstraction: the JSON reports agree
	// byte for byte under either PreserveBitTests setting, on this pair and
	// on the paper-mix corpus, whose §6.4 bitmask FPs the option removes.
	inputs := []struct {
		name  string
		files map[string]string
	}{
		{"wrapper", files},
		{"papermix", kernelgen.Generate(kernelgen.Config{Seed: 7, Mix: kernelgen.PaperMix()}).Files},
	}
	for _, in := range inputs {
		for _, preserve := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/PreserveBitTests=%v", in.name, preserve), func(t *testing.T) {
				opts := Options{PreserveBitTests: preserve}
				whole := New(LinuxDPMSpecs())
				whole.SetOptions(opts)
				if err := whole.AddSources(in.files); err != nil {
					t.Fatal(err)
				}
				want, err := whole.Run()
				if err != nil {
					t.Fatal(err)
				}
				sep := New(LinuxDPMSpecs())
				sep.SetOptions(opts)
				got, err := sep.RunSeparate(context.Background(), in.files)
				if err != nil {
					t.Fatal(err)
				}
				var wantJSON, gotJSON strings.Builder
				if err := want.WriteReports(&wantJSON, "json", false); err != nil {
					t.Fatal(err)
				}
				if err := got.WriteReports(&gotJSON, "json", false); err != nil {
					t.Fatal(err)
				}
				if gotJSON.String() != wantJSON.String() {
					t.Fatalf("separate run reports %d bugs, linked %d; JSON reports differ", len(got.Bugs), len(want.Bugs))
				}
			})
		}
	}
}

func TestRunSeparateParseError(t *testing.T) {
	_, err := New(LinuxDPMSpecs()).RunSeparate(context.Background(), map[string]string{"x.c": "int broken("})
	if err == nil || !strings.HasPrefix(err.Error(), "parse x.c: ") {
		t.Fatalf("want a parse x.c error, got %v", err)
	}
}

// TestAddDirMatchesAddSources pins the directory order: drv.c and
// drv/x.c both define drv_op, buggy in drv.c and clean in drv/x.c. A
// directory walk visits drv/x.c first; sorted path order puts it last.
// AddDir must resolve the duplicate as AddSources does, so `rid -dir` and
// `rid serve -dir` on the same tree report the same bugs.
func TestAddDirMatchesAddSources(t *testing.T) {
	const clean = `
int drv_op(struct device *dev) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return ret;
}
`
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "drv"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "drv.c"), []byte(buggy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "drv", "x.c"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := ReadSources(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("ReadSources: %d files", len(files))
	}
	run := func(load func(a *Analyzer) error) string {
		t.Helper()
		a := New(LinuxDPMSpecs())
		if err := load(a); err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := res.WriteReports(&out, "json", false); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	fromDir := run(func(a *Analyzer) error { return a.AddDir(dir) })
	fromMap := run(func(a *Analyzer) error { return a.AddSources(files) })
	if fromDir != fromMap {
		t.Fatalf("AddDir and AddSources disagree:\n--- AddDir ---\n%s--- AddSources ---\n%s", fromDir, fromMap)
	}
}
