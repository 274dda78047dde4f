// Package ipp implements Step III of the RID analysis (§3.3.4, §4.5):
// pairwise consistency checking of path summary entries, reporting of
// inconsistent path pairs, and construction of the final function summary
// from the consistent entries.
package ipp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/frontend/token"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// Report is one detected inconsistent path pair: two entries of the same
// function whose constraints are co-satisfiable (same arguments and same
// return value are possible) but whose changes to Refcount differ.
type Report struct {
	Fn       string
	SrcFile  string
	Pos      token.Pos
	Refcount *sym.Expr
	// Resource is the declared resource kind of the tracked expression
	// ("lock", "fd", ...) when a non-refcount spec pack claims its field.
	// Empty for refcount packs, keeping their rendering and encodings
	// byte-identical to the refcount-only analyzer.
	Resource string
	EntryA   *summary.Entry
	EntryB   *summary.Entry
	PathA    int
	PathB    int
	DeltaA   int
	DeltaB   int
	// Witness, when non-nil, is a concrete assignment to arguments and the
	// return value under which both paths are feasible — direct evidence
	// of the runtime indistinguishability the IPP definition requires.
	Witness map[string]int64
	// Evidence, when non-nil, is the recorded derivation of the pair
	// (Options.Provenance): CFG paths, constraint history, applied
	// callee entries, the deciding solver query, and — once core's
	// post-pass has run — the witness-replay verdict. Reports from the
	// same pair share one Evidence object.
	Evidence *Evidence
}

// Key identifies the report for deduplication: one report per function and
// refcount, as in the paper ("each refcount with different changes in the
// IPP is reported as a bug").
func (r *Report) Key() string { return r.Fn + "\x00" + r.Refcount.Key() }

// ResourceWord is the noun used when rendering the report: the declared
// resource kind, or "refcount" when none was tagged.
func (r *Report) ResourceWord() string {
	if r.Resource == "" {
		return "refcount"
	}
	return r.Resource
}

// String renders a human-readable one-line diagnostic.
func (r *Report) String() string {
	return fmt.Sprintf("%s: function %s: inconsistent path pair on %s %s (path %d: %+d, path %d: %+d)",
		r.Pos, r.Fn, r.ResourceWord(), r.Refcount, r.PathA, r.DeltaA, r.PathB, r.DeltaB)
}

// Detail renders the full two-entry evidence, in the layout of Figure 2,
// including a concrete witness assignment when one was found.
func (r *Report) Detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "function %s (%s)\n", r.Fn, r.Pos)
	fmt.Fprintf(&b, "  %s: %s\n", r.ResourceWord(), r.Refcount)
	fmt.Fprintf(&b, "  path %d entry: %s\n", r.PathA, r.EntryA)
	fmt.Fprintf(&b, "  path %d entry: %s\n", r.PathB, r.EntryB)
	if len(r.Witness) > 0 {
		keys := make([]string, 0, len(r.Witness))
		for k := range r.Witness {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  witness: ")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s = %d", k, r.Witness[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Options tune Step III. The zero value is the production configuration.
type Options struct {
	// Obs, when non-nil, receives the per-function ipp span and the Step
	// III counters: ipp_candidates (pairs that reached the solver — i.e.
	// survived bucketing and the bounds pre-filter) and ipp_confirmed
	// (reports emitted after deduplication).
	Obs *obs.Obs

	// Provenance attaches an Evidence record to every report. Requires
	// the symexec pass to have run with Config.Provenance (otherwise
	// the evidence carries only projected constraints and no paths).
	Provenance bool

	// FieldKinds maps tracked field names to their declared resource
	// kinds (spec.Specs.FieldKinds). Reports on fields of a non-refcount
	// kind are tagged with it; nil or unknown fields default to refcount.
	FieldKinds map[string]string
}

// resourceKind resolves the resource tag for a tracked expression from
// the outermost field name, returning "" for the default refcount kind.
func resourceKind(rc *sym.Expr, kinds map[string]string) string {
	if kinds == nil || rc.Kind != sym.KField {
		return ""
	}
	if k, ok := kinds[rc.Name]; ok && k != "refcount" {
		return k
	}
	return ""
}

// Check runs the consistency check over the per-path entries of one
// function and builds its final summary, with default options and no
// cancellation.
func Check(res symexec.Result, slv *solver.Solver) ([]*Report, *summary.Summary) {
	return CheckWith(context.Background(), res, slv, Options{})
}

// CheckWith runs the consistency check over the per-path entries of one
// function and builds its final summary.
//
// Entries are admitted in order; a candidate inconsistent with an already
// admitted entry produces one report per differing refcount and is dropped
// (the paper drops one side "randomly"; dropping the later one keeps runs
// deterministic). The returned summary is the set of admitted entries,
// plus a default entry when the executor hit a budget (§5.2).
//
// Two pruning layers cut pairwise solver traffic without changing any
// report. Entries are bucketed by changes-signature: signature equality is
// exactly SameChanges, so a same-bucket pair can never be an IPP and the
// O(changes) map comparison becomes a string compare. And before the
// solver runs, a syntactic pre-filter intersects the interval bounds each
// entry's constraints place on shared terms (conjuncts of the form
// term ⋈ const); disjoint bounds on any shared term — e.g. x ≤ k in one
// entry, x ≥ k+1 in the other — prove the conjunction UNSAT, which is the
// same verdict Fourier–Motzkin would reach, so the pair is skipped.
//
// ctx bounds the pairwise sweep: when it expires, entries not yet
// admitted are dropped and the summary gets the §5.2 default entry, the
// same degradation as a budget-truncated function.
func CheckWith(ctx context.Context, res symexec.Result, slv *solver.Solver, opts Options) ([]*Report, *summary.Summary) {
	fn := res.Fn
	sp := opts.Obs.Start(obs.PhaseIPP, fn.Name)
	defer sp.End()
	sum := summary.New(fn.Name)
	sum.Params = fn.Params

	var reports []*Report
	var seen map[string]bool // report dedup per (fn, refcount); lazy — most functions report nothing
	var kept []symexec.PathEntry

	// Per-entry precomputation, indexed in parallel with res.Entries /
	// kept: changes-signature and interval bounds.
	sigs := make([]string, len(res.Entries))
	bounds := make([]map[string]interval, len(res.Entries))
	for i, e := range res.Entries {
		sigs[i] = e.ChangesSignature()
		bounds[i] = consBounds(e.Cons)
	}
	var keptSigs []string
	var keptBounds []map[string]interval

	canceled := false
	for ci, cand := range res.Entries {
		if ctx.Err() != nil {
			canceled = true
			break
		}
		inconsistent := false
		// The candidate's constraints are the fixed side of every pair in
		// this sweep, so the queries run as one batch: the conjunction key
		// is assembled in a reused buffer, the shared cache is probed once
		// per distinct kept-constraint (entries inside a signature bucket
		// often repeat constraint sets), and the conjunction Set is only
		// materialized on a cache miss. Verdicts and counters are identical
		// to the unbatched slv.Sat(k.Cons ∧ cand.Cons).
		pairs := slv.Pairs(cand.Cons)
		for ki, k := range kept {
			if keptSigs[ki] == sigs[ci] {
				continue // same bucket: identical changes, never an IPP
			}
			if disjointBounds(keptBounds[ki], bounds[ci]) {
				continue // syntactically contradictory: Sat would say no
			}
			// Different changes: IPP iff constraints are co-satisfiable.
			opts.Obs.Count(obs.MIPPCandidates, 1)
			if !pairs.Sat(k.Cons) {
				continue
			}
			inconsistent = true
			var ev *Evidence
			if opts.Provenance {
				// Capture the query ordinal before Model issues
				// further queries for the witness search.
				ev = buildEvidence(fn, res, k, cand, queryRef(opts.Obs))
			}
			witness, _ := slv.Model(k.Cons.AndSet(cand.Cons))
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
					Evidence: ev,
				}
				if !seen[rep.Key()] {
					if seen == nil {
						seen = make(map[string]bool, 4)
					}
					seen[rep.Key()] = true
					reports = append(reports, rep)
					opts.Obs.Count(obs.MIPPConfirmed, 1)
				}
			}
			break
		}
		if !inconsistent {
			kept = append(kept, cand)
			keptSigs = append(keptSigs, sigs[ci])
			keptBounds = append(keptBounds, bounds[ci])
		}
	}

	for _, k := range kept {
		sum.Entries = append(sum.Entries, exportable(k.Entry))
	}
	if res.Truncated || canceled || len(sum.Entries) == 0 {
		// Partially analyzed (or fully infeasible): add the default entry
		// so callers can still be analyzed (§5.2).
		sum.HasDefault = true
		sum.Entries = append(sum.Entries, summary.NewEntry(sym.True(), sym.Ret()))
	}
	return reports, sum
}

// exportable strips refcount changes keyed by local or fresh symbols from
// an entry before it enters the function summary. Such refcounts (objects
// created inside the function that never escaped) are compared across the
// function's own path pairs above, but a caller can neither observe nor
// balance them, so exporting them would only manufacture spurious IPPs at
// every call site.
func exportable(e *summary.Entry) *summary.Entry {
	hasLocal := false
	for _, c := range e.Changes {
		if c.RC.HasLocal() {
			hasLocal = true
			break
		}
	}
	if !hasLocal {
		return e
	}
	n := e.Clone()
	for k, c := range n.Changes {
		if c.RC.HasLocal() {
			delete(n.Changes, k)
		}
	}
	return n
}
