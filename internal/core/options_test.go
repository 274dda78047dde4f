package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/lower"
	"repro/internal/spec"
	"repro/internal/symexec"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxCat2Conds != 3 || o.Workers != 1 {
		t.Errorf("defaults: %+v", o)
	}
	if o.Exec.MaxPaths != 100 || o.Exec.MaxSubcases != 10 || o.Exec.NoPrune {
		t.Errorf("exec defaults: %+v", o.Exec)
	}
	if w := (Options{Workers: -1}).withDefaults().Workers; w < 1 {
		t.Errorf("all-cores workers: %d", w)
	}
}

// TestWorkersClamp pins the documented -workers contract end to end:
// 0 defaults to 1 (one worker), positive values pass through, and any
// negative value — not just -1 — means runtime.GOMAXPROCS(0).
func TestWorkersClamp(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, 1},
		{1, 1},
		{6, 6},
		{-1, cores},
		{-8, cores},
	}
	for _, c := range cases {
		if got := (Options{Workers: c.in}).withDefaults().Workers; got != c.want {
			t.Errorf("Workers=%d clamps to %d, want %d", c.in, got, c.want)
		}
	}
}

// TestOptionsPartialExecDefaults is the regression test for the old
// withDefaults bug: a partially-populated Exec config used to be replaced
// wholesale whenever MaxPaths was zero, silently discarding the fields the
// caller did set. Each field must now default independently.
func TestOptionsPartialExecDefaults(t *testing.T) {
	o := Options{Exec: symexec.Config{MaxSubcases: 5}}.withDefaults()
	if o.Exec.MaxSubcases != 5 {
		t.Errorf("explicit MaxSubcases overwritten: %+v", o.Exec)
	}
	if o.Exec.MaxPaths != 100 {
		t.Errorf("unset MaxPaths not defaulted: %+v", o.Exec)
	}
	o2 := Options{Exec: symexec.Config{MaxPaths: 7, NoPrune: true}}.withDefaults()
	if o2.Exec.MaxPaths != 7 || o2.Exec.MaxSubcases != 10 || !o2.Exec.NoPrune {
		t.Errorf("partial exec defaults: %+v", o2.Exec)
	}
}

func TestAnalyzeAllCoversEverything(t *testing.T) {
	src := `
int unrelated_math(int a) {
    int v = random();
    if (v > a)
        return v;
    return a;
}

int driver(struct device *dev) {
    pm_runtime_get(dev);
    pm_runtime_put(dev);
    return 0;
}
`
	prog, err := lower.SourceString("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	normal := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{})
	all := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{AnalyzeAll: true})
	if normal.Stats.FuncsAnalyzed != 1 {
		t.Errorf("selective analysis covered %d, want 1", normal.Stats.FuncsAnalyzed)
	}
	if all.Stats.FuncsAnalyzed != 2 {
		t.Errorf("AnalyzeAll covered %d, want 2", all.Stats.FuncsAnalyzed)
	}
	if !all.DB.Has("unrelated_math") {
		t.Error("AnalyzeAll must summarize category-3 functions too")
	}
}

func TestNoCacheSameReports(t *testing.T) {
	prog, err := lower.SourceString("t.c", figure8Src)
	if err != nil {
		t.Fatal(err)
	}
	with := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{})
	without := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{NoCache: true})
	if len(with.Reports) != len(without.Reports) {
		t.Errorf("cache changed results: %d vs %d", len(with.Reports), len(without.Reports))
	}
	if without.Stats.Solver.CacheHits != 0 {
		t.Errorf("NoCache run had %d cache hits", without.Stats.Solver.CacheHits)
	}
}

func TestReportsByFunctionSorted(t *testing.T) {
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
	prog, err := lower.SourceString("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{})
	byFn := res.ReportsByFunction()
	if len(byFn) != 2 || byFn[0].Fn != "aa_op" || byFn[1].Fn != "zz_op" {
		t.Errorf("order: %v", byFn)
	}
}

func TestCustomBudgetsRespected(t *testing.T) {
	prog, err := lower.SourceString("t.c", figure8Src)
	if err != nil {
		t.Fatal(err)
	}
	// Pathologically tight budgets still terminate; the truncated function
	// gets a default summary entry.
	res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{
		Exec: symexec.Config{MaxPaths: 1, MaxSubcases: 1},
	})
	s := res.DB.Get("radeon_crtc_set_config")
	if s == nil || !s.HasDefault {
		t.Errorf("truncated function must carry a default entry: %v", s)
	}
}

// TestPreserveBitTestsKillsFalsePositives exercises the paper's future-work
// extension: with bit tests preserved as stable terms, the §6.4
// false-positive pattern becomes distinguishable and disappears, while real
// bugs are still reported.
func TestPreserveBitTestsKillsFalsePositives(t *testing.T) {
	src := `
void fp_pattern(struct device *dev, struct dpm_opts *o) {
    if (o->flags & 2) {
        pm_runtime_get(dev);
    }
    do_transfer(dev);
    if (o->flags & 2) {
        pm_runtime_put(dev);
    }
}
` + figure8Src
	// Paper-faithful abstraction: the FP fires.
	prog1, err := lower.SourceString("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	res1 := Analyze(context.Background(), prog1, spec.LinuxDPM(), Options{})
	hit1 := map[string]bool{}
	for _, r := range res1.Reports {
		hit1[r.Fn] = true
	}
	if !hit1["fp_pattern"] || !hit1["radeon_crtc_set_config"] {
		t.Fatalf("baseline reports: %v", res1.Reports)
	}

	// Extended abstraction: the FP vanishes, the real bug stays.
	prog2, err := lower.Program(map[string]string{"t.c": src}, lower.Options{PreserveBitTests: true})
	if err != nil {
		t.Fatal(err)
	}
	res2 := Analyze(context.Background(), prog2, spec.LinuxDPM(), Options{})
	hit2 := map[string]bool{}
	for _, r := range res2.Reports {
		hit2[r.Fn] = true
	}
	if hit2["fp_pattern"] {
		t.Error("bit-test FP survived PreserveBitTests")
	}
	if !hit2["radeon_crtc_set_config"] {
		t.Error("real bug lost under PreserveBitTests")
	}
}
