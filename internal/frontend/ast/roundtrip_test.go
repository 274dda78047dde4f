package ast_test

import (
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/frontend/ast"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/lower"
)

// Corpus-wide printer property: every generated source file survives
// print → re-parse → lower with identical IR. This sweeps the whole
// grammar surface the generators exercise (wrappers, gotos, loops,
// switches never appear here but are covered by the targeted tests).
func TestPrintRoundTripKernelCorpus(t *testing.T) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 500,
		Mix: kernelgen.Mix{
			CorrectBalanced: 3, CorrectErrHandled: 3, CorrectWrapperUse: 3,
			CorrectHeld: 2, BugGetErrReturn: 3, BugWrapperErrPath: 3,
			BugWrapperMisuse: 2, BugDoublePut: 2, BugIRQStyle: 2,
			BugAsymmetricErr: 2, BugLoopErrPath: 2, CorrectLoop: 2, FPBitmask: 3,
		},
		SimpleHelpers: 3, ComplexHelpers: 2, OtherFuncs: 10,
	})
	roundTripFiles(t, c.Files)
}

func TestPrintRoundTripPythonCCorpus(t *testing.T) {
	m := pycgen.Generate(pycgen.Config{Name: "rt", Seed: 501, Mix: pycgen.Mix{
		Common: 4, RIDOnly: 4, CpyOnly: 4, Correct: 6,
	}})
	roundTripFiles(t, m.Files)
}

func roundTripFiles(t *testing.T, files map[string]string) {
	t.Helper()
	for name, src := range files {
		f1, err := parser.ParseFile(name, src)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		printed := ast.Print(f1)
		f2, err := parser.ParseFile(name+".printed", printed)
		if err != nil {
			t.Fatalf("re-parse %s: %v\n--- printed ---\n%s", name, err, printed)
		}
		p1 := ir.NewProgram()
		if err := lower.IntoOpts(p1, f1, lower.Options{}); err != nil {
			t.Fatal(err)
		}
		p2 := ir.NewProgram()
		if err := lower.IntoOpts(p2, f2, lower.Options{}); err != nil {
			t.Fatal(err)
		}
		if len(p1.Order) != len(p2.Order) {
			t.Fatalf("%s: function counts differ after round trip", name)
		}
		for _, fn := range p1.Order {
			if p1.Funcs[fn].String() != p2.Funcs[fn].String() {
				t.Errorf("%s: function %s IR changed after print/re-parse", name, fn)
			}
		}
	}
}
