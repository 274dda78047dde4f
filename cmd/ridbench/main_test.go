package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestBenchMisuseAndTable2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ridbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-misuse", "-table2").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"error-handled call sites: 96",
		"missing the decrement:    67",
		"detected by RID:          40 of 67",
		"krbV               48 ( 48)       86 ( 86)       14 ( 14)",
		"total              86 ( 86)      114 (114)       16 ( 16)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestParseWorkers(t *testing.T) {
	good := []struct {
		in   string
		want []int
	}{
		{"1", []int{1}},
		{"-1", []int{-1}},
		{"1,2,4,8", []int{1, 2, 4, 8}},
		{" 1, 4 ", []int{1, 4}},
		{"1,,4", []int{1, 4}},
	}
	for _, c := range good {
		got, err := parseWorkers(c.in)
		if err != nil {
			t.Errorf("parseWorkers(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseWorkers(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseWorkers(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	for _, in := range []string{"", ",", "x", "1,x", "0", "1,0,4"} {
		if got, err := parseWorkers(in); err == nil {
			t.Errorf("parseWorkers(%q) = %v, want error", in, got)
		}
	}
}

func TestBenchShowSpecs(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ridbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-show-specs").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "pm_runtime_get_sync") || !strings.Contains(s, "Py_DECREF") {
		t.Errorf("specs output incomplete:\n%s", s)
	}
}

// TestBenchPerfJSONSingleWorker: -perf-json has one format, a PerfSweep,
// also for a single -workers setting, and the plain series table is still
// what -perf prints.
func TestBenchPerfJSONSingleWorker(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ridbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "perf.json")
	out, err := exec.Command(bin, "-perf", "-perf-scales", "1", "-workers", "1", "-perf-json", path).Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "§6.5: performance scaling (workers=1") {
		t.Errorf("no scaling table:\n%s", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sweep, err := experiments.ReadPerfSweep(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Snapshots) != 1 || sweep.Snapshots[0].Workers != 1 || len(sweep.Snapshots[0].Points) != 1 {
		t.Fatalf("sweep: %+v", sweep)
	}
}
