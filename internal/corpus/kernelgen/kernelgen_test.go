package kernelgen

import (
	"context"
	"testing"

	"repro/internal/baseline/grepscan"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/spec"
)

// buildProgram parses and lowers every generated file into one program.
func buildProgram(t testing.TB, c *Corpus) *ir.Program {
	t.Helper()
	prog, err := lower.Program(c.Files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func smallMix() Mix {
	return Mix{
		CorrectBalanced:   6,
		CorrectErrHandled: 4,
		CorrectWrapperUse: 4,
		CorrectHeld:       3,
		BugGetErrReturn:   5,
		BugWrapperErrPath: 3,
		BugWrapperMisuse:  3,
		BugDoublePut:      2,
		BugIRQStyle:       3,
		BugAsymmetricErr:  3,
		BugLoopErrPath:    2,
		CorrectLoop:       2,
		CorrectSwitch:     2,
		BugDeepWrapper:    2,
		FPBitmask:         4,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 7, Mix: smallMix(), OtherFuncs: 5})
	b := Generate(Config{Seed: 7, Mix: smallMix(), OtherFuncs: 5})
	if len(a.Files) != len(b.Files) {
		t.Fatalf("file counts differ: %d vs %d", len(a.Files), len(b.Files))
	}
	for name, src := range a.Files {
		if b.Files[name] != src {
			t.Fatalf("file %s differs between runs with the same seed", name)
		}
	}
}

func TestGeneratedCorpusParses(t *testing.T) {
	c := Generate(Config{Seed: 11, Mix: smallMix(), SimpleHelpers: 3, ComplexHelpers: 2, OtherFuncs: 10})
	prog := buildProgram(t, c)
	if len(prog.Funcs) == 0 {
		t.Fatal("no functions lowered")
	}
}

// TestDetectionMatrix is the central soundness check: RID must flag every
// detectable bug, must stay silent on undetectable-by-design bugs, must
// fire on the FP patterns (that is what makes them FP patterns), and the
// only reports on correct code must be those FPs.
func TestDetectionMatrix(t *testing.T) {
	c := Generate(Config{Seed: 42, Mix: smallMix(), SimpleHelpers: 4, ComplexHelpers: 2, OtherFuncs: 20})
	prog := buildProgram(t, c)
	res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{})

	reported := make(map[string]bool)
	for _, r := range res.Reports {
		reported[r.Fn] = true
	}

	for fn, info := range c.Truth {
		switch {
		case info.Real && info.Detectable:
			if !reported[fn] {
				t.Errorf("missed detectable bug %s (%s)", fn, info.Pattern)
			}
		case info.Real && !info.Detectable:
			if reported[fn] {
				t.Errorf("undetectable-by-design bug %s (%s) was reported", fn, info.Pattern)
			}
		case info.FPExpected:
			if !reported[fn] {
				t.Errorf("FP pattern %s (%s) not reported", fn, info.Pattern)
			}
		default:
			if reported[fn] {
				t.Errorf("false positive on correct %s (%s)", fn, info.Pattern)
			}
		}
	}
	// No reports outside labeled functions (wrappers, helpers, utils must
	// all be clean).
	for fn := range reported {
		if _, ok := c.Truth[fn]; !ok {
			t.Errorf("report on unlabeled function %s", fn)
		}
	}
}

func TestClassificationShape(t *testing.T) {
	c := Generate(Config{Seed: 5, Mix: smallMix(), SimpleHelpers: 5, ComplexHelpers: 3, OtherFuncs: 50})
	prog := buildProgram(t, c)
	res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{})
	cl := res.Classification

	// All driver ops and wrappers are category 1.
	for fn := range c.Truth {
		if cl.Category[fn] != core.CatRefcount {
			t.Errorf("%s classified %s, want refcount-changing", fn, cl.Category[fn])
		}
	}
	for _, w := range c.Wrappers {
		if cl.Category[w] != core.CatRefcount {
			t.Errorf("wrapper %s classified %s", w, cl.Category[w])
		}
	}
	// Helpers called by drivers land in category 2; the complex ones are
	// excluded by the ≤3 gate.
	if cl.NumAffectingAnalyzed == 0 {
		t.Error("no analyzed category-2 functions")
	}
	if cl.NumAffectingUnanalyzed == 0 {
		t.Error("no unanalyzed category-2 functions")
	}
	// The utility mass is category 3.
	if cl.NumOther < 40 {
		t.Errorf("category-3 count %d, want ≥ 40", cl.NumOther)
	}
}

func TestGrepScanMatchesSiteTruth(t *testing.T) {
	c := Generate(Config{Seed: 13, Mix: smallMix(), OtherFuncs: 5})
	wrapperSet := make(map[string]bool)
	for _, w := range c.Wrappers {
		wrapperSet[w] = true
	}
	sc := &grepscan.Scanner{ExcludeFn: func(fn string) bool { return wrapperSet[fn] }}
	sites, stats := sc.ScanAll(c.Files)

	wantHandled, wantMissing := 0, 0
	for _, s := range c.Sites {
		if s.Handled {
			wantHandled++
			if s.MissingPut {
				wantMissing++
			}
		}
	}
	if stats.WithHandling != wantHandled {
		t.Errorf("handled sites: scanner %d, truth %d", stats.WithHandling, wantHandled)
	}
	if stats.MissingPut != wantMissing {
		t.Errorf("missing-put sites: scanner %d, truth %d", stats.MissingPut, wantMissing)
	}
	// Per-site agreement.
	truthByFn := make(map[string]SiteTruth)
	for _, s := range c.Sites {
		truthByFn[s.Fn] = s
	}
	for _, got := range sites {
		want, ok := truthByFn[got.EnclosingFn]
		if !ok {
			t.Errorf("scanner found unlabeled site in %s", got.EnclosingFn)
			continue
		}
		if got.PutOnError != !want.MissingPut {
			t.Errorf("site %s: scanner putOnError=%t, truth missing=%t", got.EnclosingFn, got.PutOnError, want.MissingPut)
		}
	}
}

func TestPaperMixRatios(t *testing.T) {
	m := PaperMix()
	handled := m.CorrectErrHandled + m.BugGetErrReturn + m.BugDoublePut + m.BugIRQStyle + m.BugAsymmetricErr
	missing := m.BugGetErrReturn + m.BugIRQStyle + m.BugAsymmetricErr
	detectableMissing := m.BugGetErrReturn
	if handled != 96 {
		t.Errorf("handled sites = %d, want 96 (§6.3)", handled)
	}
	if missing != 67 {
		t.Errorf("missing-put sites = %d, want 67 (§6.3)", missing)
	}
	if detectableMissing != 40 {
		t.Errorf("RID-detectable missing sites = %d, want 40 (§6.3)", detectableMissing)
	}
}
