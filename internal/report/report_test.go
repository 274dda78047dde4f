package report

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ipp"
	"repro/internal/lower"
	"repro/internal/spec"
)

func sampleReports(t *testing.T) []*ipp.Report {
	t.Helper()
	src := `
int zz_op(struct device *dev) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}
int aa_op(struct device *dev) {
    int ret;
    ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}
`
	prog, err := lower.SourceString("drv.c", src)
	if err != nil {
		t.Fatal(err)
	}
	res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{})
	if len(res.Reports) != 2 {
		t.Fatalf("reports: %d", len(res.Reports))
	}
	// Deliberately misordered input.
	return []*ipp.Report{res.Reports[1], res.Reports[0]}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "JSON", "Sarif"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("xml must be rejected")
	}
}

func TestTextDeterministicOrder(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Text, sampleReports(t), false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "aa_op") || !strings.Contains(out, "zz_op") {
		t.Fatalf("output: %s", out)
	}
	if strings.Index(out, "aa_op") > strings.Index(out, "zz_op") {
		t.Error("reports not sorted by function")
	}
}

func TestTextVerboseIncludesEvidence(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Text, sampleReports(t), true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "path 0 entry:") {
		t.Errorf("verbose output missing evidence:\n%s", buf.String())
	}
}

func TestJSONLines(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, JSON, sampleReports(t), false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	var jr jsonReport
	if err := json.Unmarshal([]byte(lines[0]), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Function != "aa_op" || jr.Refcount != "[dev].pm" || jr.File != "drv.c" {
		t.Errorf("first report: %+v", jr)
	}
	if jr.DeltaA == jr.DeltaB {
		t.Errorf("deltas: %+v", jr)
	}
	if len(jr.Witness) == 0 || jr.Evidence == "" {
		t.Errorf("witness/evidence missing: %+v", jr)
	}
}

// TestWriteReusesDetails pins the render-once contract: details passed by
// the caller stay paired with their reports through the sort and replace
// the writer's own rendering, and real renderings give the same bytes in
// every format as a call that passes none.
func TestWriteReusesDetails(t *testing.T) {
	rs := sampleReports(t) // zz_op, then aa_op
	details := make([]string, len(rs))
	for i, r := range rs {
		details[i] = r.Detail()
	}
	for _, f := range []Format{Text, JSON, SARIF} {
		var plain, reused bytes.Buffer
		if err := Write(&plain, f, rs, true); err != nil {
			t.Fatal(err)
		}
		if err := Write(&reused, f, rs, true, details...); err != nil {
			t.Fatal(err)
		}
		if plain.String() != reused.String() {
			t.Errorf("%s: output differs with pre-rendered details", f)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, JSON, rs, false, "zz detail\n", "aa detail\n"); err != nil {
		t.Fatal(err)
	}
	var first jsonReport
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Function != "aa_op" || first.Evidence != "aa detail\n" {
		t.Errorf("first record %s carries evidence %q, want aa_op's", first.Function, first.Evidence)
	}
}

func TestSARIFWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, SARIF, sampleReports(t), false); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF is not valid JSON: %v", err)
	}
	if log["version"] != "2.1.0" {
		t.Errorf("version: %v", log["version"])
	}
	runs := log["runs"].([]any)
	run := runs[0].(map[string]any)
	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results: %d", len(results))
	}
	first := results[0].(map[string]any)
	if first["ruleId"] != "RID001" || first["level"] != "warning" {
		t.Errorf("result: %v", first)
	}
	loc := first["locations"].([]any)[0].(map[string]any)
	phys := loc["physicalLocation"].(map[string]any)
	if phys["artifactLocation"].(map[string]any)["uri"] != "drv.c" {
		t.Errorf("location: %v", phys)
	}
}

func TestSARIFEmptyRunsHaveResultsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, SARIF, nil, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("empty results array required by SARIF consumers:\n%s", buf.String())
	}
}

func TestWriteDiags(t *testing.T) {
	diags := []Diag{
		{Function: "", Kind: "canceled", Cause: "context deadline exceeded; 3 of 9 functions analyzed"},
		{Function: "drv_op", Kind: "path-budget", Cause: "path enumeration truncated at MaxPaths=100"},
	}
	var text strings.Builder
	if err := WriteDiags(&text, Text, diags); err != nil {
		t.Fatal(err)
	}
	want := "(run): canceled: context deadline exceeded; 3 of 9 functions analyzed\n" +
		"drv_op: path-budget: path enumeration truncated at MaxPaths=100\n"
	if text.String() != want {
		t.Errorf("text diags:\n%q\nwant:\n%q", text.String(), want)
	}

	var buf strings.Builder
	if err := WriteDiags(&buf, JSON, diags); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("json diag lines: %d", len(lines))
	}
	var d Diag
	if err := json.Unmarshal([]byte(lines[1]), &d); err != nil {
		t.Fatal(err)
	}
	if d != diags[1] {
		t.Errorf("json round-trip: %+v", d)
	}
	// Run-level events omit the function field entirely.
	var raw map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["function"]; ok {
		t.Errorf("run-level diag carries a function key: %s", lines[0])
	}

	// SARIF has no diagnostics section; text fallback keeps -diag usable.
	var sb strings.Builder
	if err := WriteDiags(&sb, SARIF, diags); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("sarif fallback: %q", sb.String())
	}
}
