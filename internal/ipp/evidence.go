package ipp

import (
	"fmt"
	"strings"

	"repro/internal/frontend/token"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/symexec"
)

// Evidence is the recorded derivation of one Report: the two CFG paths
// with source positions, the entry constraints before and after the
// existential projection of locals, every callee summary entry applied
// during Step II forking, and a reference to the Step III solver query
// that decided co-satisfiability. It is captured only under
// Options.Provenance (plumbed from symexec.Config.Provenance), so the
// default pipeline pays nothing for it.
//
// Reports produced by the same inconsistent pair share one *Evidence:
// the pair has one derivation regardless of how many refcounts differ.
// The replay verdict (Replay) is filled in by core's provenance
// post-pass after the analysis completes.
type Evidence struct {
	PathA PathEvidence `json:"path_a"`
	PathB PathEvidence `json:"path_b"`
	// Query identifies the co-satisfiability query of Step III.
	Query QueryRef `json:"query"`
	// Replay is the witness-replay verdict; nil until replay runs.
	Replay *ReplayResult `json:"replay,omitempty"`
}

// PathEvidence is the derivation of one side of the pair: the Step I
// path as a CFG block sequence and the Step II constraint history.
type PathEvidence struct {
	PathIndex int         `json:"path_index"`
	Blocks    []BlockStep `json:"blocks"`
	// RawCons is the path constraint at the return, before locals were
	// existentially projected; Cons is the projected (exported) form.
	// Both are empty when symexec ran without provenance capture.
	RawCons string `json:"raw_cons,omitempty"`
	Cons    string `json:"cons"`
	// Callees lists every callee summary entry applied while executing
	// the path, in application order (Algorithm 1 forking).
	Callees []symexec.CalleeApp `json:"callees,omitempty"`
}

// BlockStep is one CFG block of a recorded path, with the position of
// its first located instruction and the instructions it executes.
type BlockStep struct {
	Index  int       `json:"index"`
	Pos    token.Pos `json:"pos"`
	Instrs []string  `json:"instrs,omitempty"`
}

// QueryRef cross-links the deciding Step III solver query to the obs
// layer. Index is the value of the solver_queries counter just after
// the query was issued (a 1-based global query ordinal); TraceSeq is
// the JSONL trace sequence number at the same moment when a tracer is
// attached (0 otherwise). Both are exact at Workers=1; under
// concurrent workers other workers may interleave queries, so they are
// lower bounds that locate the relevant window of a trace.
type QueryRef struct {
	Index    int64 `json:"index,omitempty"`
	TraceSeq int64 `json:"trace_seq,omitempty"`
}

// Replay verdicts. Confirmed means the interpreter reproduced both
// recorded paths under the report's witness assignment and observed
// differing refcount deltas — the static claim checked dynamically.
// Diverged means both paths were reproduced but the observed deltas
// did not differ (the claim did not materialize concretely).
// NotReplayable means at least one recorded path could not be driven
// to reproduce within the replay budget (typically a callee's summary
// entry admits several concrete behaviors and the sampled ones never
// steered execution down the recorded blocks).
const (
	ReplayConfirmed     = "confirmed-by-replay"
	ReplayDiverged      = "replay-diverged"
	ReplayNotReplayable = "not-replayable"
)

// ReplayResult is the outcome of driving internal/interp with the
// report's witness down the two recorded paths.
type ReplayResult struct {
	Verdict string `json:"verdict"`
	// DeltaA/DeltaB are the normalized refcount delta signatures
	// observed on the two replayed paths (empty for a path that was
	// not reproduced).
	DeltaA string `json:"delta_a,omitempty"`
	DeltaB string `json:"delta_b,omitempty"`
	// Attempts is the number of interpreter runs spent steering
	// execution onto the recorded paths.
	Attempts int `json:"attempts"`
}

// String renders the replay verdict with its observed deltas.
func (r *ReplayResult) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(r.Verdict)
	if r.DeltaA != "" || r.DeltaB != "" {
		fmt.Fprintf(&b, " (path A deltas %q, path B deltas %q, %d attempts)",
			r.DeltaA, r.DeltaB, r.Attempts)
	} else {
		fmt.Fprintf(&b, " (%d attempts)", r.Attempts)
	}
	return b.String()
}

// buildEvidence assembles the Evidence for the pair (k, cand) at the
// moment the deciding query returned SAT. qref must be captured by the
// caller immediately after that query (before Model issues more).
func buildEvidence(fn *ir.Func, res symexec.Result, k, cand symexec.PathEntry, qref QueryRef) *Evidence {
	return &Evidence{
		PathA: pathEvidence(fn, res, k),
		PathB: pathEvidence(fn, res, cand),
		Query: qref,
	}
}

func pathEvidence(fn *ir.Func, res symexec.Result, pe symexec.PathEntry) PathEvidence {
	ev := PathEvidence{PathIndex: pe.PathIndex, Cons: pe.Cons.String()}
	if pe.Prov != nil {
		ev.RawCons = pe.Prov.RawCons
		ev.Cons = pe.Prov.Cons
		ev.Callees = pe.Prov.Apps
	}
	if pe.PathIndex >= 0 && pe.PathIndex < len(res.Paths) {
		blocks := res.Paths[pe.PathIndex].Blocks
		ev.Blocks = make([]BlockStep, 0, len(blocks))
		body := fn.Body().Blocks
		for _, bi := range blocks {
			step := BlockStep{Index: bi}
			if bi >= 0 && bi < len(body) {
				blk := body[bi]
				step.Instrs = make([]string, len(blk.Instrs))
				for i, in := range blk.Instrs {
					step.Instrs[i] = in.String()
					if !step.Pos.IsValid() && in.Pos.IsValid() {
						step.Pos = in.Pos
					}
				}
			}
			ev.Blocks = append(ev.Blocks, step)
		}
	}
	return ev
}

// queryRef reads the current solver-query ordinal and trace sequence
// from the observer. Must be called right after the deciding Sat query.
func queryRef(o *obs.Obs) QueryRef {
	var q QueryRef
	if reg := o.Registry(); reg != nil {
		q.Index = reg.Counter(obs.MSolverQueries)
	}
	q.TraceSeq = o.TraceSeq()
	return q
}
