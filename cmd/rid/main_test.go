package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/rid"
)

// buildCLI compiles the rid binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rid")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

const buggyDriver = `
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

func writeDriver(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "drv.c")
	if err := os.WriteFile(p, []byte(buggyDriver), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCLIReportsBugAndExitCode(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	out, err := exec.Command(bin, src).CombinedOutput()
	if err == nil {
		t.Fatal("exit code must be non-zero when bugs are found")
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "drv_op") || !strings.Contains(string(out), "[dev].pm") {
		t.Fatalf("output: %s", out)
	}
}

func TestCLISarifFormat(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	out, _ := exec.Command(bin, "-format", "sarif", src).CombinedOutput()
	s := string(out)
	if !strings.Contains(s, `"version": "2.1.0"`) || !strings.Contains(s, "RID001") {
		t.Fatalf("sarif output: %s", s)
	}
}

func TestCLISuppress(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	out, err := exec.Command(bin, "-suppress", "drv_op", src).CombinedOutput()
	if err != nil {
		t.Fatalf("suppressed run should exit 0: %v\n%s", err, out)
	}
	if strings.TrimSpace(string(out)) != "" {
		t.Fatalf("suppressed output: %s", out)
	}
}

func TestCLIDot(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	out, err := exec.Command(bin, "-dot", "drv_op", src).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), `digraph "drv_op"`) {
		t.Fatalf("dot output: %s", out)
	}
}

func TestCLIStats(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	out, _ := exec.Command(bin, "-stats", src).CombinedOutput()
	if !strings.Contains(string(out), "categories:") {
		t.Fatalf("stats output: %s", out)
	}
}

// TestCLIUnknownSpec pins the unknown -spec diagnostic: exit 2, and the
// pack list in the message comes from the registry, naming every pack.
func TestCLIUnknownSpec(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-spec", "bogus", "x.c").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "unknown -spec") {
		t.Fatalf("expected spec error, got %v: %s", err, out)
	}
	for _, name := range rid.SpecPackNames() {
		if !strings.Contains(string(out), name) {
			t.Fatalf("diagnostic does not name pack %q: %s", name, out)
		}
	}
}

const buggyLockUser = `
extern int mutex_trylock(struct lock *l);
extern void mutex_unlock(struct lock *l);
extern int dev_io(struct lock *l);

int lk_op(struct lock *l) {
    int ret;
    if (mutex_trylock(l) == 0)
        return -1;
    ret = dev_io(l);
    if (ret < 0)
        return ret;
    mutex_unlock(l);
    return ret;
}
`

// TestCLISpecPackFindsLockBug pins the -spec-pack happy path: merging the
// lock pack onto the default refcount specs finds a lock imbalance and
// exits 1, with the report naming the lock resource.
func TestCLISpecPackFindsLockBug(t *testing.T) {
	bin := buildCLI(t)
	src := filepath.Join(t.TempDir(), "lk.c")
	if err := os.WriteFile(src, []byte(buggyLockUser), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-spec-pack", "lock", src).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 (bug found), got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "lk_op") || !strings.Contains(string(out), "lock [l].held") {
		t.Fatalf("output: %s", out)
	}
	// Without the pack the same source is silent: the lock APIs are
	// unknown externs to the refcount specs.
	out2, err2 := exec.Command(bin, src).CombinedOutput()
	if err2 != nil {
		t.Fatalf("pack-less run should exit 0: %v\n%s", err2, out2)
	}
}

// TestCLISpecLoaderErrors pins the loader's exact diagnostics and the
// exit-2 contract on each failure path: a missing spec file, a pack
// conflict via -spec-file, a malformed delta, and an unknown pack name.
func TestCLISpecLoaderErrors(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "x.c")
	if err := os.WriteFile(src, []byte("int f(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	missing := filepath.Join(dir, "nope.spec")

	dup := filepath.Join(dir, "dup.spec")
	if err := os.WriteFile(dup, []byte(
		"summary spin_lock(l) { entry { cons: true; changes: [l].held -= 1; return: ; } }\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	bad := filepath.Join(dir, "bad.spec")
	if err := os.WriteFile(bad, []byte(
		"summary f(x) {\n  entry { cons: true; changes: [x].held += q; return: ; }\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing spec file", []string{"-spec-file", missing, src},
			"rid: open " + missing + ": no such file or directory"},
		{"duplicate api across packs", []string{"-spec", "lock", "-spec-file", dup, src},
			"rid: " + dup + `: conflicting definitions of API "spin_lock"`},
		{"malformed delta", []string{"-spec-file", bad, src},
			"rid: " + bad + `:2: expected integer delta, found "q"`},
		{"unknown pack name", []string{"-spec-pack", "bogus", src},
			`rid: unknown spec pack "bogus" (have fd, linux-dpm, lock, python-c)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("want exit 2, got %v\n%s", err, out)
			}
			if got := strings.TrimSpace(string(out)); got != tc.want {
				t.Fatalf("diagnostic:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// runCLI runs bin with args and returns its stdout and exit code.
func runCLI(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestCLISeparateMode drives the §5.3 separate-compilation mode over a
// wrapper file and its caller. -separate shares the linked run's output
// tail, so it must print the same bytes with the same exit code in every
// format, and -save-summaries, -suppress and -stats work in both modes.
func TestCLISeparateMode(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	w := filepath.Join(dir, "w.c")
	d := filepath.Join(dir, "d.c")
	if err := os.WriteFile(w, []byte(`
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
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(d, []byte(`
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
`), 0o644); err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		args []string
	}{{"separate", []string{"-separate"}}, {"linked", nil}}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			sums := filepath.Join(t.TempDir(), "sums.json")
			out, code := runCLI(t, bin, append(mode.args, "-save-summaries", sums, w, d)...)
			if code != 1 || !strings.Contains(out, "function op:") {
				t.Fatalf("want exit 1 with a bug in op, got %d: %s", code, out)
			}
			data, err := os.ReadFile(sums)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(data), "ss_get") {
				t.Fatal("summary database missing wrapper")
			}
			out, code = runCLI(t, bin, append(mode.args, "-suppress", "op", "-stats", w, d)...)
			if code != 0 || strings.Contains(out, "function op:") || !strings.Contains(out, "categories:") {
				t.Fatalf("-suppress op -stats: exit %d: %s", code, out)
			}
		})
	}
	for _, format := range []string{"text", "json", "sarif"} {
		t.Run("format "+format, func(t *testing.T) {
			want, wantCode := runCLI(t, bin, "-format", format, "-v", w, d)
			got, gotCode := runCLI(t, bin, "-separate", "-format", format, "-v", w, d)
			if got != want || gotCode != wantCode {
				t.Fatalf("-separate differs from the linked run\nlinked (exit %d):\n%s\nseparate (exit %d):\n%s",
					wantCode, want, gotCode, got)
			}
		})
	}
}

// flagUsage splits `-h` output into one usage block per flag name.
func flagUsage(help string) map[string]string {
	blocks := map[string]string{}
	name := ""
	for _, line := range strings.Split(help, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(rest, " ")
		}
		if name != "" {
			blocks[name] += line + "\n"
		}
	}
	return blocks
}

// TestCLIHelpParity pins the one flag binder: every shared analysis flag
// prints identical usage text under rid, rid serve and rid explain, and
// the cache flags under rid and rid serve (explain's provenance runs skip
// the store, so it has none).
func TestCLIHelpParity(t *testing.T) {
	bin := buildCLI(t)
	help := map[string]map[string]string{}
	for _, sub := range []string{"", "serve", "explain"} {
		args := []string{"-h"}
		if sub != "" {
			args = []string{sub, "-h"}
		}
		out, _ := exec.Command(bin, args...).CombinedOutput()
		help[sub] = flagUsage(string(out))
	}
	check := func(flag string, subs ...string) {
		t.Helper()
		want := help[subs[0]][flag]
		if want == "" {
			t.Fatalf("rid %s -h lists no -%s", subs[0], flag)
		}
		for _, sub := range subs[1:] {
			if got := help[sub][flag]; got != want {
				t.Errorf("-%s usage differs:\nrid %s:\n%srid %s:\n%s", flag, subs[0], want, sub, got)
			}
		}
	}
	for _, flag := range []string{"spec", "spec-pack", "spec-file", "workers", "max-paths", "max-subcases",
		"cat2-conds", "func-timeout", "solver-max-constraints", "solver-max-splits"} {
		check(flag, "", "serve", "explain")
	}
	for _, flag := range []string{"cache-dir", "cache-url"} {
		check(flag, "", "serve")
		if help["explain"][flag] != "" {
			t.Errorf("rid explain declares -%s", flag)
		}
	}
}

func TestCLIDiagListsTruncation(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "m.c")
	if err := os.WriteFile(src, []byte(`
int many_paths(struct device *dev, int a, int b, int c) {
    pm_runtime_get(dev);
    if (a) do_transfer(dev);
    if (b) do_transfer(dev);
    if (c) do_transfer(dev);
    pm_runtime_put(dev);
    return 0;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ := exec.Command(bin, "-max-paths", "1", "-diag", "-stats", src).CombinedOutput()
	s := string(out)
	if !strings.Contains(s, "many_paths: path-budget:") {
		t.Fatalf("-diag output missing truncation line: %s", s)
	}
	if !strings.Contains(s, "degraded: 1 truncated") {
		t.Fatalf("-stats output missing degradation summary: %s", s)
	}
	// Without -diag the same run stays quiet about the truncation detail.
	out2, _ := exec.Command(bin, "-max-paths", "1", src).CombinedOutput()
	if strings.Contains(string(out2), "path-budget") {
		t.Fatalf("diagnostics printed without -diag: %s", out2)
	}
}

func TestCLIDeadlinePartialExit(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	out, err := exec.Command(bin, "-deadline", "1ns", src).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("deadline run must exit 3 (partial), got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "results are partial") {
		t.Fatalf("missing partial-results notice: %s", out)
	}
}

// checkTraceJSONL asserts the trace file is complete: newline-terminated
// with every line a parseable span object. A truncated flush (the bug the
// exit-path restructure fixes: os.Exit skipping the deferred buffer
// flush) leaves either an empty file or a torn final line.
func checkTraceJSONL(t *testing.T, path string, wantSpans bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if wantSpans && len(data) == 0 {
		t.Fatal("trace file is empty: the exit path skipped the buffer flush")
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatalf("trace file does not end in a newline (torn final span): %q", data[len(data)-50:])
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if line == "" && len(data) == 0 {
			continue
		}
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("trace line %d is not valid JSON (%v): %q", i+1, err, line)
		}
		if _, ok := span["phase"]; !ok {
			t.Fatalf("trace line %d has no phase field: %q", i+1, line)
		}
	}
}

// TestCLITraceCompleteOnBugExit pins the exit-path contract: the bugs-found
// exit(1) path must flush and close the -trace file before the process
// dies, leaving a complete JSONL log including the run-level span.
func TestCLITraceCompleteOnBugExit(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := exec.Command(bin, "-trace", tracePath, src).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 (bugs found), got %v\n%s", err, out)
	}
	checkTraceJSONL(t, tracePath, true)
	if data, _ := os.ReadFile(tracePath); !strings.Contains(string(data), `"phase":"run"`) {
		t.Fatalf("trace is missing the run-level span (flushed too early?):\n%s", data)
	}
}

// TestCLITraceCompleteOnDeadlineExit pins the same contract on the
// degraded exit(3) path: whatever spans were emitted before the deadline
// fired must be on disk, complete, when the process exits.
func TestCLITraceCompleteOnDeadlineExit(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := exec.Command(bin, "-deadline", "1ns", "-trace", tracePath, src).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("want exit 3 (degraded), got %v\n%s", err, out)
	}
	checkTraceJSONL(t, tracePath, false)
}

// TestCLIServeReportMatchesCLI pins the serve acceptance contract: the
// daemon's report field is byte-identical to `rid` stdout for the same
// sources at every Workers setting.
func TestCLIServeReportMatchesCLI(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	cliOut, err := exec.Command(bin, src).Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("cli run: %v", err)
	}

	srv, err := serve.New(serve.Config{MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		resp, ar, err := postAnalyze(ts.URL, &serve.AnalyzeRequest{
			Files:   map[string]string{src: string(data)},
			Workers: workers,
		})
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: %v %+v", workers, err, ar)
		}
		if ar.Report != string(cliOut) {
			t.Fatalf("workers=%d: daemon report differs from CLI stdout\ncli:\n%s\ndaemon:\n%s",
				workers, cliOut, ar.Report)
		}
	}
}
