package pycgen

import (
	"context"
	"testing"

	"repro/internal/baseline/cpyrule"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/spec"
)

func buildProgram(t testing.TB, m *Module) *ir.Program {
	t.Helper()
	prog, err := lower.Program(m.Files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// detect runs both tools and returns per-function hit sets.
func detect(t testing.TB, m *Module) (rid, cpy map[string]bool) {
	t.Helper()
	prog := buildProgram(t, m)
	res := core.Analyze(context.Background(), prog, spec.PythonC(), core.Options{})
	rid = make(map[string]bool)
	for _, r := range res.Reports {
		rid[r.Fn] = true
	}
	cpy = make(map[string]bool)
	for _, r := range cpyrule.New(spec.PythonC(), cpyrule.Config{}).Check(prog) {
		cpy[r.Fn] = true
	}
	return rid, cpy
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "m", Seed: 9, Mix: Mix{Common: 3, RIDOnly: 3, CpyOnly: 2, Correct: 4}}
	a, b := Generate(cfg), Generate(cfg)
	for name, src := range a.Files {
		if b.Files[name] != src {
			t.Fatalf("file %s differs across runs", name)
		}
	}
}

// TestClassMatrix checks that each bug class is detected by exactly the
// tools Table 2 attributes it to.
func TestClassMatrix(t *testing.T) {
	m := Generate(Config{Name: "probe", Seed: 21, Mix: Mix{Common: 8, RIDOnly: 8, CpyOnly: 8, Correct: 10}})
	rid, cpy := detect(t, m)

	for fn, cls := range m.Truth {
		switch cls {
		case ClassCommon:
			if !rid[fn] {
				t.Errorf("RID missed common bug %s", fn)
			}
			if !cpy[fn] {
				t.Errorf("cpyrule missed common bug %s", fn)
			}
		case ClassRIDOnly:
			if !rid[fn] {
				t.Errorf("RID missed RID-only bug %s", fn)
			}
			if cpy[fn] {
				t.Errorf("cpyrule unexpectedly caught RID-only bug %s", fn)
			}
		case ClassCpyOnly:
			if rid[fn] {
				t.Errorf("RID unexpectedly caught cpy-only bug %s", fn)
			}
			if !cpy[fn] {
				t.Errorf("cpyrule missed cpy-only bug %s", fn)
			}
		case ClassCorrect:
			if rid[fn] {
				t.Errorf("RID false positive on %s", fn)
			}
			if cpy[fn] {
				t.Errorf("cpyrule false positive on %s", fn)
			}
		}
	}
}

func TestPaperConfigsShape(t *testing.T) {
	cfgs := PaperConfigs()
	if len(cfgs) != 3 {
		t.Fatalf("modules: %d", len(cfgs))
	}
	// Table 2 totals: common 86, RID-specific 114, Cpychecker-specific 16.
	var common, ridOnly, cpyOnly int
	for _, c := range cfgs {
		common += c.Mix.Common
		ridOnly += c.Mix.RIDOnly
		cpyOnly += c.Mix.CpyOnly
	}
	if common != 86 || ridOnly != 114 || cpyOnly != 16 {
		t.Errorf("class totals = %d/%d/%d, want 86/114/16", common, ridOnly, cpyOnly)
	}
}
