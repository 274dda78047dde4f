package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus/kernelgen"
	"repro/internal/lower"
	"repro/internal/spec"
	"repro/internal/symexec"
)

// AblationRow is one configuration's outcome on the shared ablation corpus.
type AblationRow struct {
	Name     string
	Reports  int
	Analyzed int
	FPs      int // reports on FP-expected functions (only for the bit-test rows)
	TrueBugs int
	Elapsed  time.Duration
}

// Ablations runs every design-decision ablation DESIGN.md §5 calls out on
// one seeded corpus and returns the rows in a fixed order. It is the code
// behind `ridbench -ablations` and mirrors the Benchmark* ablations.
func Ablations(ctx context.Context) ([]AblationRow, error) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 9, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 50,
	})
	prog, err := lower.Program(c.Files, lower.Options{})
	if err != nil {
		return nil, err
	}

	var rows []AblationRow
	run := func(name string, opts core.Options) {
		t0 := time.Now()
		res := core.Analyze(ctx, prog, spec.LinuxDPM(), opts)
		rows = append(rows, AblationRow{
			Name:     name,
			Reports:  len(res.Reports),
			Analyzed: res.Stats.FuncsAnalyzed,
			Elapsed:  time.Since(t0),
		})
	}

	run("baseline (paper §6.1 settings)", core.Options{})
	run("no Alg-1 pruning", core.Options{Exec: symexec.Config{
		MaxPaths: 100, MaxSubcases: 10, NoPrune: true,
	}})
	run("keep local conditions (no §3.3.3 projection)", core.Options{Exec: symexec.Config{
		MaxPaths: 100, MaxSubcases: 10, KeepLocalConds: true,
	}})
	run("cat-2 gate = 1 branch", core.Options{MaxCat2Conds: 1})
	run("cat-2 gate = 8 branches", core.Options{MaxCat2Conds: 8})
	run("budgets 10 paths / 2 subcases", core.Options{Exec: symexec.Config{
		MaxPaths: 10, MaxSubcases: 2,
	}})
	run("budgets 1000 paths / 50 subcases", core.Options{Exec: symexec.Config{
		MaxPaths: 1000, MaxSubcases: 50,
	}})
	run("workers = 4 (SCC-level parallelism, §5.3)", core.Options{Workers: 4})

	// Bit-test preservation needs a differently lowered program; score FPs
	// and true bugs against ground truth for both abstractions.
	score := func(name string, preserve bool) error {
		p2, err := lower.Program(c.Files, lower.Options{PreserveBitTests: preserve})
		if err != nil {
			return err
		}
		t0 := time.Now()
		res := core.Analyze(ctx, p2, spec.LinuxDPM(), core.Options{})
		row := AblationRow{Name: name, Reports: len(res.Reports), Analyzed: res.Stats.FuncsAnalyzed, Elapsed: time.Since(t0)}
		hit := map[string]bool{}
		for _, r := range res.Reports {
			hit[r.Fn] = true
		}
		for fn, info := range c.Truth {
			switch {
			case info.FPExpected && hit[fn]:
				row.FPs++
			case info.Real && hit[fn]:
				row.TrueBugs++
			}
		}
		rows = append(rows, row)
		return nil
	}
	if err := score("bit tests havocked (paper abstraction)", false); err != nil {
		return nil, err
	}
	if err := score("bit tests preserved (§5.4 future work)", true); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAblations renders the rows as a table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations (one seeded corpus; see DESIGN.md §5)\n")
	fmt.Fprintf(&b, "%-46s %8s %9s %5s %9s %12s\n", "configuration", "reports", "analyzed", "FPs", "true-bugs", "time")
	for _, r := range rows {
		fp, tb := "-", "-"
		if r.FPs > 0 || r.TrueBugs > 0 {
			fp, tb = fmt.Sprint(r.FPs), fmt.Sprint(r.TrueBugs)
		}
		fmt.Fprintf(&b, "%-46s %8d %9d %5s %9s %12s\n",
			r.Name, r.Reports, r.Analyzed, fp, tb, r.Elapsed.Round(time.Microsecond))
	}
	return b.String()
}
