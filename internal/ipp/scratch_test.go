package ipp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus/kernelgen"
	"repro/internal/lower"
	"repro/internal/racebuild"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// render is everything a frozen result shows: its entries and paths, its
// summary text, and its reports' bytes.
func render(res symexec.Result, reps []*Report, sum *summary.Summary) string {
	var b strings.Builder
	for _, e := range res.Entries {
		fmt.Fprintf(&b, "path %d: %s\n", e.PathIndex, e.Entry)
		if e.Prov != nil {
			fmt.Fprintf(&b, "  raw %s apps %d\n", e.Prov.RawCons, len(e.Prov.Apps))
		}
	}
	for _, p := range res.Paths {
		fmt.Fprintf(&b, "blocks %v\n", p.Blocks)
	}
	b.WriteString(sum.String())
	for _, r := range reps {
		b.WriteString(r.String())
		b.WriteString(r.Detail())
	}
	return b.String()
}

// TestResultsSurviveScratchReuse: Steps I–III build in scratch that one
// worker reuses from function to function, and only frozen results leave
// a call. So a function's entries, paths, summary text and report bytes
// read the same after the same worker has analyzed 50 more functions as
// they did when it finished the function. Under -race the scratch is
// poisoned when it is put back, so an alias shows as changed text.
func TestResultsSurviveScratchReuse(t *testing.T) {
	tb := sym.NewTable()
	c := kernelgen.Generate(kernelgen.Config{Seed: 71, Mix: kernelgen.PaperMix(), SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 20})
	prog, err := lower.Program(c.Files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, provenance := range []bool{false, true} {
		db := summary.NewDB()
		spec.LinuxDPM().ApplyTo(db)
		slv := solver.New()
		ex := symexec.New(tb, db, slv, symexec.Config{Provenance: provenance})
		type kept struct {
			fn   string
			res  symexec.Result
			reps []*Report
			sum  *summary.Summary
			text string
		}
		var done []kept
		reported := 0
		for _, scc := range callgraph.Build(prog).SCCs() {
			for _, name := range scc {
				fn := prog.Funcs[name]
				if fn == nil {
					continue
				}
				res := ex.Summarize(context.Background(), fn)
				reps, sum := CheckWith(context.Background(), res, slv, Options{Provenance: provenance})
				db.Put(sum)
				done = append(done, kept{name, res, reps, sum, render(res, reps, sum)})
				reported += len(reps)
			}
		}
		if len(done) <= 50 || reported == 0 {
			t.Fatalf("%d functions, %d reports: too few to exercise reuse", len(done), reported)
		}
		for _, k := range done[:len(done)-50] {
			if got := render(k.res, k.reps, k.sum); got != k.text {
				t.Fatalf("provenance=%v: %s changed after 50 more functions:\nnow:\n%s\nwas:\n%s", provenance, k.fn, got, k.text)
			}
		}
	}
}

// TestCheckerPoolContract pins the build-tagged halves of putChecker: the
// normal build empties the scratch and keeps its capacity, and the race
// build poisons what an alias could still read and drops the storage.
func TestCheckerPoolContract(t *testing.T) {
	c := getChecker()
	c.sigs = append(c.sigs, "[dev].pm=1;"...)
	c.sigEnd = append(c.sigEnd, len(c.sigs))
	c.bounds = append(c.bounds, termBound{id: 1, iv: interval{lo: 0, hi: 4}})
	c.boundEnd = append(c.boundEnd, 1)
	c.kept = append(c.kept, 0)
	sigs, bounds := c.sigs, c.bounds
	putChecker(c)
	if racebuild.Enabled {
		if sigs[0] != 0xff || bounds[0].iv.lo <= bounds[0].iv.hi {
			t.Error("race build must poison the scratch an alias can read")
		}
		if c.sigs != nil || c.bounds != nil || c.kept != nil {
			t.Error("race build must drop poisoned storage")
		}
		return
	}
	if len(c.sigs)+len(c.sigEnd)+len(c.bounds)+len(c.boundEnd)+len(c.kept) != 0 {
		t.Error("a recycled checker carries entries")
	}
	if cap(c.sigs) == 0 || cap(c.bounds) == 0 {
		t.Error("the normal build must keep the scratch capacity")
	}
}
