package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestTable1SmallScale(t *testing.T) {
	r, err := Table1(context.Background(), Table1Config{Seed: 1, Helpers: 5, Complex: 7, Other: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.Refcount == 0 || r.AffectingAnalyzed == 0 || r.AffectingUnanalyzed == 0 || r.Other < 100 {
		t.Errorf("degenerate classification: %+v", r)
	}
	if got := r.Refcount + r.AffectingAnalyzed + r.AffectingUnanalyzed + r.Other; got != r.Total {
		t.Errorf("category sum %d != total %d", got, r.Total)
	}
	if !strings.Contains(r.Format(), "Table 1") {
		t.Error("format header missing")
	}
}

func TestDPMBugsScoring(t *testing.T) {
	r, err := DPMBugs(context.Background(), 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.MissedDetectable != 0 {
		t.Errorf("detectable bugs missed: %d", r.MissedDetectable)
	}
	if r.TrueBugs == 0 || r.Reports < r.TrueBugs {
		t.Errorf("scoring: %+v", r)
	}
	// Every false positive must come from the planted FP patterns (60
	// bit-op instances in PaperMix) — no accidental FPs anywhere else.
	if r.FalsePositives != 60 {
		t.Errorf("false positives = %d, want exactly the 60 planted FP patterns", r.FalsePositives)
	}
	// reports = true bugs + FPs exactly: nothing unaccounted.
	if r.Reports != r.TrueBugs+r.FalsePositives {
		t.Errorf("reports %d != true %d + FPs %d", r.Reports, r.TrueBugs, r.FalsePositives)
	}
	// The undetectable classes must actually be missed (they keep the
	// census honest).
	if r.MissedReal == 0 {
		t.Error("no missed bugs — the FN classes are not working")
	}
	if !strings.Contains(r.Format(), "§6.2") {
		t.Error("format header missing")
	}
}

func TestMisuseCensus(t *testing.T) {
	r, err := Misuse(context.Background(), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: 96 handled, 67 missing (≈70%), 40 detected (≈60%).
	if r.HandledSites != 96 {
		t.Errorf("handled sites = %d, want 96", r.HandledSites)
	}
	if r.MissingPut != 67 {
		t.Errorf("missing put = %d, want 67", r.MissingPut)
	}
	if r.RIDDetected != 40 {
		t.Errorf("RID detected = %d, want 40", r.RIDDetected)
	}
	// The dumb textual scanner must roughly agree with ground truth.
	if r.ScannerHandled != r.HandledSites || r.ScannerMissing != r.MissingPut {
		t.Errorf("scanner drift: handled %d vs %d, missing %d vs %d",
			r.ScannerHandled, r.HandledSites, r.ScannerMissing, r.MissingPut)
	}
}

func TestTable2ExactCounts(t *testing.T) {
	r, err := Table2(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.RIDFalsePositives != 0 || r.CpyFalsePositives != 0 {
		t.Errorf("false positives: RID=%d cpy=%d", r.RIDFalsePositives, r.CpyFalsePositives)
	}
	if r.RIDMissed != 0 || r.CpyMissed != 0 {
		t.Errorf("missed: RID=%d cpy=%d", r.RIDMissed, r.CpyMissed)
	}
	for _, row := range r.Rows {
		if row.Common != row.PaperRow[0] || row.RIDOnly != row.PaperRow[1] || row.CpyOnly != row.PaperRow[2] {
			t.Errorf("%s: got %d/%d/%d, paper %v", row.Program, row.Common, row.RIDOnly, row.CpyOnly, row.PaperRow)
		}
	}
	if r.Total.Common != 86 || r.Total.RIDOnly != 114 || r.Total.CpyOnly != 16 {
		t.Errorf("totals: %d/%d/%d", r.Total.Common, r.Total.RIDOnly, r.Total.CpyOnly)
	}
}

func TestPerfSeries(t *testing.T) {
	pts, err := Perf(context.Background(), []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Funcs == 0 {
		t.Errorf("points: %+v", pts)
	}
	if pts[0].Mallocs == 0 || pts[0].AllocBytes < pts[0].Mallocs {
		t.Errorf("analyze window: %d mallocs, %d bytes", pts[0].Mallocs, pts[0].AllocBytes)
	}
	if !strings.Contains(FormatPerf(pts, 1), "§6.5") {
		t.Error("format header missing")
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	base := byName["baseline (paper §6.1 settings)"]
	if base.Reports == 0 {
		t.Fatal("baseline produced no reports")
	}
	if keep := byName["keep local conditions (no §3.3.3 projection)"]; keep.Reports*10 > base.Reports {
		t.Errorf("keep-locals ablation should collapse reports: %d vs baseline %d", keep.Reports, base.Reports)
	}
	if w4 := byName["workers = 4 (path-level stealing, §7)"]; w4.Reports != base.Reports {
		t.Errorf("workers = 4 changed reports: %d vs %d", w4.Reports, base.Reports)
	}
	havoc := byName["bit tests havocked (paper abstraction)"]
	preserved := byName["bit tests preserved (§5.4 future work)"]
	if havoc.FPs == 0 || preserved.FPs != 0 {
		t.Errorf("bit-test FPs: havoc=%d preserved=%d", havoc.FPs, preserved.FPs)
	}
	if havoc.TrueBugs != preserved.TrueBugs {
		t.Errorf("true bugs changed: %d vs %d", havoc.TrueBugs, preserved.TrueBugs)
	}
	if !strings.Contains(FormatAblations(rows), "configuration") {
		t.Error("format header missing")
	}
}
