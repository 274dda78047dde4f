package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/callgraph"
	"repro/internal/ir"
	"repro/internal/spec"
	"repro/internal/summary"
)

// AnalyzeFiles implements the separate-compilation mode of §5.3: progs
// holds one program per source file (name → program, each lowered on its
// own), a dependency graph over files is built (A depends on B when A
// uses a symbol B defines), strongly connected file groups are linked
// into one unit, and the groups are analyzed in reverse topological order
// with a shared summary database — summaries computed for one group are
// reused, not recomputed, when later groups call into it.
//
// Cancellation stops between (and within) file groups: groups analyzed so
// far contribute their reports and diagnostics, later groups are skipped.
func AnalyzeFiles(ctx context.Context, progs map[string]*ir.Program, specs *spec.Specs, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// One registry for the whole multi-file run: per-group Stats.Solver is
	// delta-based, so sharing keeps the Add below exact while -metrics and
	// /debug/vars see a single live view.
	opts.Obs = opts.Obs.EnsureRegistry()

	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)

	// Symbol table: in name order, so a symbol defined in several files
	// resolves to the last one.
	definedIn := make(map[string]int) // symbol → index in names
	for i, n := range names {
		for _, fn := range progs[n].Order {
			definedIn[fn] = i
		}
	}

	// File dependency edges, each file's in name order, so the group order
	// below is deterministic.
	deps := make([][]int, len(names))
	for i, n := range names {
		for _, fn := range progs[n].Order {
			for _, callee := range progs[n].Funcs[fn].Calls {
				if m, ok := definedIn[callee]; ok && m != i && !slices.Contains(deps[i], m) {
					deps[i] = append(deps[i], m)
				}
			}
		}
		slices.Sort(deps[i])
	}

	// Strongly connected file groups, dependencies first.
	groups := callgraph.Tarjan(deps)

	// Shared state across groups.
	db := summary.NewDB()
	if specs != nil {
		specs.ApplyTo(db)
	}
	total := &Result{DB: db, Classification: &Classification{
		Category: make(map[string]Category),
		Analyzed: make(map[string]bool),
	}}

	for _, group := range groups {
		if ctx.Err() != nil {
			// The group during which cancellation fired already recorded
			// the run-level diagnostic; skip the remaining groups.
			break
		}
		linked := ir.NewProgram()
		for _, i := range group {
			linked.Merge(progs[names[i]])
		}
		res := analyzeWithDB(ctx, linked, specs, db, opts)
		total.Reports = append(total.Reports, res.Reports...)
		total.Diagnostics = append(total.Diagnostics, res.Diagnostics...)
		total.Stats.FuncsTotal += res.Stats.FuncsTotal
		total.Stats.FuncsAnalyzed += res.Stats.FuncsAnalyzed
		total.Stats.PathsEnumerated += res.Stats.PathsEnumerated
		total.Stats.ClassifyTime += res.Stats.ClassifyTime
		total.Stats.AnalyzeTime += res.Stats.AnalyzeTime
		total.Stats.FuncsTruncated += res.Stats.FuncsTruncated
		total.Stats.FuncsTimedOut += res.Stats.FuncsTimedOut
		total.Stats.FuncsPanicked += res.Stats.FuncsPanicked
		total.Stats.Solver.Add(res.Stats.Solver)
		for fn, cat := range res.Classification.Category {
			total.Classification.Category[fn] = cat
		}
		for fn, a := range res.Classification.Analyzed {
			total.Classification.Analyzed[fn] = a
		}
		total.Classification.NumRefcount += res.Classification.NumRefcount
		total.Classification.NumAffectingAnalyzed += res.Classification.NumAffectingAnalyzed
		total.Classification.NumAffectingUnanalyzed += res.Classification.NumAffectingUnanalyzed
		total.Classification.NumOther += res.Classification.NumOther
	}
	sortDiagnostics(total.Diagnostics)
	sortReports(total)
	return total, nil
}
