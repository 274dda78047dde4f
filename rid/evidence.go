package rid

import (
	"io"

	"repro/internal/cfg"
	"repro/internal/ipp"
	"repro/internal/report"
)

// Replay verdicts attached to Evidence.Replay when Options.Provenance is
// set: the analyzer drove its concrete interpreter down both recorded
// paths under the bug's witness assignment and compared the observed
// refcount deltas.
const (
	// ReplayConfirmed: both paths reproduced and their concrete refcount
	// deltas differed — a dynamic IPP witness backing the static claim.
	ReplayConfirmed = ipp.ReplayConfirmed
	// ReplayDiverged: both paths reproduced but the deltas agreed; the
	// static claim did not materialize on the sampled executions.
	ReplayDiverged = ipp.ReplayDiverged
	// ReplayNotReplayable: a recorded path could not be reproduced
	// within the replay budget.
	ReplayNotReplayable = ipp.ReplayNotReplayable
)

// Evidence is the recorded derivation of a Bug, captured when
// Options.Provenance is set: the two CFG paths with positions and
// constraint history, every callee summary entry applied during
// symbolic execution, the solver query that decided co-satisfiability,
// and the witness-replay verdict.
type Evidence struct {
	PathA PathEvidence
	PathB PathEvidence
	// QueryIndex is the global ordinal of the deciding solver query
	// (the solver_queries counter just after it ran); TraceSeq is the
	// trace sequence number at the same moment when tracing was on.
	// Exact for single-worker runs, lower bounds under Workers>1.
	QueryIndex int64
	TraceSeq   int64
	// Replay is one of the Replay* verdicts, or "" if replay never ran.
	Replay string
	// ReplayDeltaA/B are the normalized refcount delta signatures the
	// two replayed paths produced; ReplayAttempts the interpreter runs
	// spent.
	ReplayDeltaA   string
	ReplayDeltaB   string
	ReplayAttempts int
}

// PathEvidence is one side of the pair.
type PathEvidence struct {
	// PathIndex is the Step I enumeration index of the path.
	PathIndex int
	// RawConstraint is the path constraint before locals were
	// existentially projected; Constraint the projected (caller-visible)
	// form.
	RawConstraint string
	Constraint    string
	Callees       []CalleeApplication
	Blocks        []BlockStep
}

// CalleeApplication records one callee summary entry folded into the
// path during symbolic execution.
type CalleeApplication struct {
	Callee     string
	EntryIndex int
	Constraint string // instantiated at the call site
	File       string
	Line       int
}

// BlockStep is one CFG block the path traverses.
type BlockStep struct {
	Block  int
	File   string
	Line   int
	Instrs []string
}

// fromEvidence mirrors the internal evidence record into the public
// types.
func fromEvidence(ev *ipp.Evidence) *Evidence {
	if ev == nil {
		return nil
	}
	out := &Evidence{
		PathA:      fromPathEvidence(ev.PathA),
		PathB:      fromPathEvidence(ev.PathB),
		QueryIndex: ev.Query.Index,
		TraceSeq:   ev.Query.TraceSeq,
	}
	if ev.Replay != nil {
		out.Replay = ev.Replay.Verdict
		out.ReplayDeltaA = ev.Replay.DeltaA
		out.ReplayDeltaB = ev.Replay.DeltaB
		out.ReplayAttempts = ev.Replay.Attempts
	}
	return out
}

func fromPathEvidence(pe ipp.PathEvidence) PathEvidence {
	out := PathEvidence{
		PathIndex:     pe.PathIndex,
		RawConstraint: pe.RawCons,
		Constraint:    pe.Cons,
	}
	for _, app := range pe.Callees {
		out.Callees = append(out.Callees, CalleeApplication{
			Callee:     app.Callee,
			EntryIndex: app.EntryIndex,
			Constraint: app.Cons,
			File:       app.Pos.File,
			Line:       app.Pos.Line,
		})
	}
	for _, blk := range pe.Blocks {
		out.Blocks = append(out.Blocks, BlockStep{
			Block:  blk.Index,
			File:   blk.Pos.File,
			Line:   blk.Pos.Line,
			Instrs: blk.Instrs,
		})
	}
	return out
}

// FilterFunctions returns a shallow copy of the result restricted to
// bugs in the named functions (`rid explain -fn`). Run-level fields
// (stats, diagnostics, metrics) are kept as-is.
func (r *Result) FilterFunctions(fns ...string) *Result {
	keep := make(map[string]bool, len(fns))
	for _, fn := range fns {
		keep[fn] = true
	}
	out := *r
	out.Bugs = nil
	for _, b := range r.Bugs {
		if keep[b.Function] {
			out.Bugs = append(out.Bugs, b)
		}
	}
	out.reports = nil
	for _, rep := range r.reports {
		if keep[rep.Fn] {
			out.reports = append(out.reports, rep)
		}
	}
	return &out
}

// WriteExplain renders the full provenance of every bug as text: the
// inconsistency, witness, replay verdict, deciding solver query, and,
// per path, the constraint history, applied callee entries, and CFG
// blocks with positions. Without Options.Provenance it degrades to the
// Figure-2 detail per bug.
func (r *Result) WriteExplain(w io.Writer) error {
	return report.WriteExplain(w, r.reports)
}

// WriteExplainHTML renders the same provenance as one self-contained
// HTML document, each report including a Graphviz CFG with the two
// paths overlaid (render with `dot -Tsvg`).
func (r *Result) WriteExplainHTML(w io.Writer) error {
	return report.WriteExplainHTML(w, r.reports, r.pathOverlay)
}

// pathOverlay builds the DOT overlay of a report's two recorded paths,
// or "" when the function or its evidence is unavailable.
func (r *Result) pathOverlay(rep *ipp.Report) string {
	if r.prog == nil || rep.Evidence == nil {
		return ""
	}
	f := r.prog.Funcs[rep.Fn]
	if f == nil {
		return ""
	}
	return cfg.New(f).DotPaths(evidenceBlocks(rep.Evidence.PathA), evidenceBlocks(rep.Evidence.PathB))
}

func evidenceBlocks(pe ipp.PathEvidence) []int {
	out := make([]int, len(pe.Blocks))
	for i, b := range pe.Blocks {
		out[i] = b.Index
	}
	return out
}
