package core

import (
	"slices"

	"repro/internal/callgraph"
	"repro/internal/slice"
	"repro/internal/summary"
)

// Category classifies a function per §5.2 of the paper.
type Category int

// Categories.
const (
	// CatOther: no effect on any refcount; ignored by the analysis.
	CatOther Category = iota
	// CatRefcount: the function (transitively) changes a refcount.
	CatRefcount
	// CatAffecting: the function's return value can affect how a
	// category-1 function changes refcounts.
	CatAffecting
)

func (c Category) String() string {
	switch c {
	case CatRefcount:
		return "refcount-changing"
	case CatAffecting:
		return "affecting"
	default:
		return "other"
	}
}

// Classification is the result of the two-phase call-graph analysis.
type Classification struct {
	Category map[string]Category
	// Analyzed reports, for category-2 functions, whether the complexity
	// gate (≤ MaxCat2Conds conditional branches) admits them.
	Analyzed map[string]bool

	// Counts in the layout of Table 1.
	NumRefcount            int
	NumAffectingAnalyzed   int
	NumAffectingUnanalyzed int
	NumOther               int
}

// classify runs the two-phase classification. Predefined refcount APIs in
// db seed phase 1; maxCat2Conds is the §5.2 complexity gate (3 in the
// paper).
func classify(g *callgraph.Graph, db *summary.DB, maxCat2Conds int) *Classification {
	cl := &Classification{
		Category: make(map[string]Category),
		Analyzed: make(map[string]bool),
	}

	// A callee "has refcount changes" if a summary in the database says so:
	// predefined refcount APIs always, and — in the multi-file and
	// incremental modes — summaries computed for earlier groups.
	isAPI := func(name string) bool {
		s := db.Get(name)
		return s != nil && s.ChangesRefcounts()
	}

	// Phase 1: reverse topological propagation of "changes refcounts", one
	// SCC at a time. Members of an SCC reach each other, so the whole SCC
	// changes refcounts as soon as one member calls a callee that does.
	hasRC := make(map[string]bool)
	affectsRC := func(callee string) bool { return hasRC[callee] || isAPI(callee) }
	for _, scc := range g.SCCs() {
		rc := false
		for _, fn := range scc {
			rc = rc || slices.ContainsFunc(g.All[fn], affectsRC)
		}
		if rc {
			for _, fn := range scc {
				hasRC[fn] = true
				cl.Category[fn] = CatRefcount
			}
		}
	}

	// Phase 2: backward slicing, callers' SCCs before callees'. A slice can
	// mark a member of its own SCC category 2, so each SCC is sliced to a
	// fixpoint: every category-1 or -2 function is sliced exactly once,
	// whatever the names of the members.
	sliced := make(map[string]bool)
	sccs := g.SCCs()
	for i := len(sccs) - 1; i >= 0; i-- {
		for changed := true; changed; {
			changed = false
			for _, fn := range sccs[i] {
				if cat := cl.Category[fn]; sliced[fn] || (cat != CatRefcount && cat != CatAffecting) {
					continue
				}
				sliced[fn], changed = true, true
				res := slice.Compute(g.Prog.Funcs[fn], slice.Criteria{
					ReturnValue:   true,
					ArgsOfCallsTo: affectsRC,
				})
				for callee := range res.CalleesInSlice {
					if _, defined := g.Prog.Funcs[callee]; !defined {
						continue
					}
					if cl.Category[callee] == CatOther {
						cl.Category[callee] = CatAffecting
					}
				}
			}
		}
	}

	// Counts and the category-2 complexity gate.
	for _, fn := range g.Nodes {
		switch cl.Category[fn] {
		case CatRefcount:
			cl.NumRefcount++
		case CatAffecting:
			if g.Prog.Funcs[fn].Body().NumConds <= maxCat2Conds {
				cl.Analyzed[fn] = true
				cl.NumAffectingAnalyzed++
			} else {
				cl.NumAffectingUnanalyzed++
			}
		default:
			cl.NumOther++
		}
	}
	return cl
}
