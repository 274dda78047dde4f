package ipp

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/lockgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// checkAllPairs is Step III as the paper states it, the reference CheckWith
// is compared against: each candidate is checked against every kept entry,
// SameChanges decides whether the changes differ, and the solver decides
// every pair whose changes do. It returns the reports, the summary and the
// number of pairs it sent to the solver.
func checkAllPairs(res symexec.Result, slv *solver.Solver, opts Options) ([]*Report, *summary.Summary, int) {
	fn := res.Fn
	sum := summary.New(fn.Name)
	sum.Params = fn.Params
	var reports []*Report
	seen := map[string]bool{}
	var kept []symexec.PathEntry
	solved := 0
	for _, cand := range res.Entries {
		inconsistent := false
		for _, k := range kept {
			if k.SameChanges(cand.Entry) {
				continue
			}
			solved++
			both := k.Cons.AndSet(cand.Cons)
			if !slv.Sat(both) {
				continue
			}
			inconsistent = true
			witness, _ := slv.Model(both)
			for _, rc := range k.DifferingRefcounts(cand.Entry) {
				rep := &Report{
					Fn:       fn.Name,
					SrcFile:  fn.SrcFile,
					Pos:      fn.Pos,
					Refcount: rc,
					Resource: resourceKind(rc, opts.FieldKinds),
					EntryA:   k.Entry,
					EntryB:   cand.Entry,
					PathA:    k.PathIndex,
					PathB:    cand.PathIndex,
					DeltaA:   k.Changes[rc.Key()].Delta,
					DeltaB:   cand.Changes[rc.Key()].Delta,
					Witness:  witness,
				}
				if !seen[rep.Key()] {
					seen[rep.Key()] = true
					reports = append(reports, rep)
				}
			}
			break
		}
		if !inconsistent {
			kept = append(kept, cand)
		}
	}
	for _, k := range kept {
		sum.Entries = append(sum.Entries, exportable(k.Entry))
	}
	if res.Truncated || len(sum.Entries) == 0 {
		sum.HasDefault = true
		sum.Entries = append(sum.Entries, summary.NewEntry(sym.True(), sym.Ret()))
	}
	return reports, sum, solved
}

// TestStepIIIReference is the oracle for Step III's changes-signature
// bucketing and contradiction pre-filter. On every function of the
// kernelgen, pycgen, lockgen and fdgen corpora and the core testdata,
// analyzed bottom-up with callers seeing CheckWith's summaries, CheckWith
// and the all-pairs reference must produce byte-identical reports
// (String and Detail) and summaries from the same Step II result. Each
// side has its own solver, so neither sees the other's cache.
func TestStepIIIReference(t *testing.T) {
	ctx := context.Background()
	coreFiles := map[string]string{}
	matches, err := filepath.Glob("../core/testdata/*.c")
	if err != nil || len(matches) == 0 {
		t.Fatalf("core testdata: %v (%d files)", err, len(matches))
	}
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		coreFiles[filepath.Base(m)] = string(b)
	}
	corpora := []struct {
		name  string
		files map[string]string
		specs *spec.Specs
	}{
		{"kernel", kernelgen.Generate(kernelgen.Config{
			Seed: 9, Mix: kernelgen.PaperMix(),
			SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 20,
		}).Files, spec.LinuxDPM()},
		{"pyc", pycgen.Generate(pycgen.Config{Name: "ref", Seed: 4, Mix: pycgen.Mix{
			Common: 12, RIDOnly: 10, CpyOnly: 4, Correct: 15,
		}}).Files, spec.PythonC()},
		{"lock", lockgen.Generate(lockgen.Config{Seed: 3, Mix: lockgen.DefaultMix()}).Files, spec.Lock()},
		{"fd", fdgen.Generate(fdgen.Config{Seed: 3, Mix: fdgen.DefaultMix()}).Files, spec.FD()},
		{"core", coreFiles, spec.LinuxDPM()},
	}
	for _, c := range corpora {
		prog, err := lower.Program(c.files, lower.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		db := summary.NewDB()
		c.specs.ApplyTo(db)
		ex := symexec.New(db, solver.New(), symexec.Config{})
		slv, refSlv := solver.New(), solver.New()
		reg := obs.NewRegistry()
		opts := Options{Obs: obs.New(nil, reg), FieldKinds: c.specs.FieldKinds()}
		reports, solved := 0, 0
		for _, scc := range callgraph.Build(prog).SCCs() {
			for _, name := range scc {
				fn := prog.Funcs[name]
				if fn == nil {
					continue
				}
				res := ex.Summarize(ctx, fn)
				got, gotSum := CheckWith(ctx, res, slv, opts)
				want, wantSum, n := checkAllPairs(res, refSlv, opts)
				solved += n
				if len(got) != len(want) {
					t.Fatalf("%s: %s: %d reports, reference %d", c.name, name, len(got), len(want))
				}
				for i := range got {
					if got[i].String() != want[i].String() || got[i].Detail() != want[i].Detail() {
						t.Fatalf("%s: %s: report %d differs\n%s\nreference:\n%s", c.name, name, i, got[i].Detail(), want[i].Detail())
					}
				}
				if gotSum.String() != wantSum.String() || gotSum.HasDefault != wantSum.HasDefault {
					t.Fatalf("%s: %s: summary differs\n%s\nreference:\n%s", c.name, name, gotSum, wantSum)
				}
				reports += len(got)
				db.Put(gotSum)
			}
		}
		if reports == 0 {
			t.Errorf("%s: no reports; oracle too weak", c.name)
		}
		if cands := reg.Counter(obs.MIPPCandidates); cands >= int64(solved) {
			t.Errorf("%s: pre-filter skipped no pair (%d candidates, %d pairs solved by the reference)", c.name, cands, solved)
		}
	}

	// Random entry mixes reach shapes the corpora rarely produce: bounds
	// on terms only one side of a pair mentions, and adjacent intervals.
	rng := rand.New(rand.NewSource(5))
	terms := []*sym.Expr{sym.Arg("dev"), sym.Ret(), sym.Field(sym.Arg("dev"), "len")}
	preds := []ir.Pred{ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE}
	reports := 0
	for i := 0; i < 500; i++ {
		var entries []symexec.PathEntry
		for p := 0; p < 2+rng.Intn(5); p++ {
			var conds []*sym.Expr
			for j := rng.Intn(3); j >= 0; j-- {
				conds = append(conds, sym.Cond(terms[rng.Intn(len(terms))], preds[rng.Intn(len(preds))], sym.Const(int64(rng.Intn(5)-2))))
			}
			entries = append(entries, entry(p, nil, rng.Intn(3)-1, pm, conds...))
		}
		res := result("f", entries...)
		got, gotSum := CheckWith(ctx, res, solver.New(), Options{})
		want, wantSum, _ := checkAllPairs(res, solver.New(), Options{})
		if len(got) != len(want) || gotSum.String() != wantSum.String() {
			t.Fatalf("mix %d: %d reports, reference %d\nsummary:\n%s\nreference:\n%s", i, len(got), len(want), gotSum, wantSum)
		}
		for j := range got {
			if got[j].Detail() != want[j].Detail() {
				t.Fatalf("mix %d: report %d differs\n%s\nreference:\n%s", i, j, got[j].Detail(), want[j].Detail())
			}
		}
		reports += len(got)
	}
	if reports == 0 {
		t.Error("random mixes: no reports; oracle too weak")
	}
}
