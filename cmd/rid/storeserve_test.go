package main

import (
	"errors"
	"io/fs"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func countStoredEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // absent dir = 0
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".sum") {
			n++
		}
		return nil
	})
	return n
}

// TestCLIStoreServeSharedCache is the end-to-end fleet-cache drill: a
// real storeserve subprocess, two rid runs from different machines'
// worth of local state sharing it, and a run against a dead store URL —
// all producing the identical report, the last one degraded with a
// cache-remote diagnostic.
func TestCLIStoreServeSharedCache(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	storeDir := filepath.Join(t.TempDir(), "fleet")
	url := startDaemon(t, bin, "storeserve", "-quiet", "-cache-dir", storeDir)

	// Baseline: no caching anywhere.
	want, err := exec.Command(bin, src).CombinedOutput()
	if cmdExit(err) != 1 {
		t.Fatalf("baseline run: %v\n%s", err, want)
	}

	// Cold run publishes to the fleet store through the write-behind.
	out1, err := exec.Command(bin, "-cache-dir", t.TempDir(), "-cache-url", url, src).CombinedOutput()
	if cmdExit(err) != 1 {
		t.Fatalf("cold fleet run: %v\n%s", err, out1)
	}
	if string(out1) != string(want) {
		t.Errorf("cold fleet run output differs from baseline:\n--- fleet ---\n%s--- baseline ---\n%s", out1, want)
	}
	if n := countStoredEntries(t, storeDir); n == 0 {
		t.Fatal("fleet store is empty after the cold run; the write-behind published nothing")
	}

	// Warm run from an empty local dir: every hit crosses the wire, and
	// the report must not change by a byte.
	out2, err := exec.Command(bin, "-cache-dir", t.TempDir(), "-cache-url", url, src).CombinedOutput()
	if cmdExit(err) != 1 {
		t.Fatalf("warm fleet run: %v\n%s", err, out2)
	}
	if string(out2) != string(want) {
		t.Errorf("warm fleet run output differs from baseline:\n--- fleet ---\n%s--- baseline ---\n%s", out2, want)
	}

	// The server's health surface saw the traffic.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	// A dead store URL must not change the verdict: same exit code, same
	// reports, plus an explicit cache-remote diagnostic under -diag.
	out3, err := exec.Command(bin, "-cache-dir", t.TempDir(), "-cache-url", "http://127.0.0.1:1", "-diag", src).CombinedOutput()
	if cmdExit(err) != 1 {
		t.Fatalf("dead-store run: %v\n%s", err, out3)
	}
	if !strings.Contains(string(out3), "cache-remote") {
		t.Errorf("dead-store run printed no cache-remote diagnostic:\n%s", out3)
	}
	if !strings.Contains(string(out3), "drv_op") {
		t.Errorf("dead-store run lost the bug report:\n%s", out3)
	}
}

// TestCLIStoreServeFailEvery drives rid against a storeserve running
// deterministic fault injection: the analysis must stay correct (exit 1,
// same report) and surface the degradation, never fail or hang.
func TestCLIStoreServeFailEvery(t *testing.T) {
	bin := buildCLI(t)
	src := writeDriver(t)
	url := startDaemon(t, bin, "storeserve", "-quiet", "-cache-dir", filepath.Join(t.TempDir(), "fleet"), "-fail-every", "2")

	want, err := exec.Command(bin, src).CombinedOutput()
	if cmdExit(err) != 1 {
		t.Fatalf("baseline run: %v\n%s", err, want)
	}
	out, err := exec.Command(bin, "-cache-dir", t.TempDir(), "-cache-url", url, src).CombinedOutput()
	if cmdExit(err) != 1 {
		t.Fatalf("fail-every run: %v\n%s", err, out)
	}
	if string(out) != string(want) {
		t.Errorf("fail-every run output differs from baseline:\n--- flaky ---\n%s--- baseline ---\n%s", out, want)
	}
}

// cmdExit extracts the process exit code (0 on nil).
func cmdExit(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}
