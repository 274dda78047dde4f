package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmokeEveryWorkload builds ridperf and rid, runs every workload in
// -quick mode untraced and traced, and checks that each metric prints with
// its unit, that no op failed, and that each result line carries every
// metric of its kind.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	ridperfBin, ridBin := filepath.Join(dir, "ridperf"), filepath.Join(dir, "rid")
	for _, b := range [][]string{{"-o", ridperfBin, "."}, {"-o", ridBin, "repro/cmd/rid"}} {
		cmd := exec.Command("go", append([]string{"build"}, b...)...)
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	for _, trace := range []string{"0", "1"} {
		cmd := exec.Command(ridperfBin, "-quick", "-seed", "317", "-trace", trace,
			"-rid", ridBin, "-work", filepath.Join(dir, "work"))
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ridperf -trace %s: %v\n%s", trace, err, out)
		}
		text := string(out)
		cat := catalog(trace == "1")
		for _, w := range workloads {
			if !strings.Contains(text, w.name+" seed=317 ") {
				t.Errorf("-trace %s: no result for %s", trace, w.name)
			}
		}
		for _, m := range cat {
			re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(m.Name) + ` +-?[0-9.]+ ` +
				regexp.QuoteMeta(m.Unit) + ` \(raw -?[0-9.]+\)$`)
			if got := len(re.FindAllString(text, -1)); got != len(workloads) {
				t.Errorf("-trace %s: %s with unit %s printed %d times, want %d", trace, m.Name, m.Unit, got, len(workloads))
			}
		}
		if trace == "0" {
			re := regexp.MustCompile(`(?m)^  error_ratio +0\.0000 ratio$`)
			if got := len(re.FindAllString(text, -1)); got != len(workloads) {
				t.Errorf("error_ratio 0 printed %d times, want %d\n%s", got, len(workloads), text)
			}
		}
		lines := 0
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "{") {
				continue
			}
			lines++
			var r struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(cat) {
				t.Errorf("-trace %s: result line %s", trace, line)
			}
		}
		if lines != len(workloads) {
			t.Errorf("-trace %s: %d result lines, want %d", trace, lines, len(workloads))
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(dir, "work", "spans-"+w.name+".jsonl")); err != nil {
			t.Errorf("traced run wrote no spans for %s: %v", w.name, err)
		}
	}
}
