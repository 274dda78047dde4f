package ast_test

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/lockgen"
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

// printedCorporaSHA256 is the SHA-256 of ast.Print over every file of the
// four default corpora (see TestPrintedCorporaPinned), recorded before the
// lexer and parser were rewritten to stream bytes. Any change to what the
// frontend parses, down to one position-free token, moves it.
const printedCorporaSHA256 = "d1e3cb3e9c543f2164b6fa61bdda46487e55334c98fdbda7f9b595b5c429c7dc"

// TestPrintedCorporaPinned parses every file of the default kernelgen
// (seed 317, the paper mix, 10 simple and 8 complex helpers, 200 others),
// pycgen (the three paper modules), lockgen and fdgen (seed 317, default
// mix) corpora and hashes each name and printed AST in name order.
func TestPrintedCorporaPinned(t *testing.T) {
	files := map[string]string{}
	add := func(prefix string, fs map[string]string) {
		for name, src := range fs {
			files[prefix+name] = src
		}
	}
	add("kernel/", kernelgen.Generate(kernelgen.Config{
		Seed: 317, Mix: kernelgen.PaperMix(), SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 200,
	}).Files)
	for _, cfg := range pycgen.PaperConfigs() {
		add("pyc/", pycgen.Generate(cfg).Files)
	}
	add("lock/", lockgen.Generate(lockgen.Config{Seed: 317, Mix: lockgen.DefaultMix()}).Files)
	add("fd/", fdgen.Generate(fdgen.Config{Seed: 317, Mix: fdgen.DefaultMix()}).Files)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		f, err := parser.ParseFile(name, files[name])
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		h.Write([]byte(name + "\n" + ast.Print(f) + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != printedCorporaSHA256 {
		t.Errorf("printed corpora hash %s over %d files, want %s", got, len(names), printedCorporaSHA256)
	}
}
