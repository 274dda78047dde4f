package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/remote"
	"repro/internal/summary"
)

// cacheState binds an open persistent summary store to one analyzeWithDB
// call: the program, the per-function content digests computed for it, and
// a latch that keeps one disk problem from flooding the diagnostics. With
// Options.CacheURL set, the store is the local directory tiered over the
// fleet store (read-through, write-behind); tiered is non-nil exactly
// then, and finish drains its write-behind queue and reports whether the
// fleet degraded.
type cacheState struct {
	store    store.Backend
	tiered   *remote.Tiered
	prog     *ir.Program
	digests  map[string]store.Digest
	saveFail atomic.Bool
}

// openCache opens opts.CacheDir (tiered over opts.CacheURL when set,
// behind opts.Resident when set) and computes the program's digests. On
// failure it appends a run-level cache-invalid diagnostic to res and
// returns nil — the run proceeds cold, it never dies over the cache. A fleet store that cannot even be
// configured (a malformed URL) likewise only costs a cache-remote
// diagnostic, not the local tier.
func openCache(opts Options, g *callgraph.Graph, db *summary.DB, toAnalyze func(string) bool, res *Result) *cacheState {
	fp := cacheFingerprint(opts)
	st, err := store.Open(opts.CacheDir, fp, opts.Obs)
	if err != nil {
		res.Diagnostics = append(res.Diagnostics, Diagnostic{
			Kind:  DegradeCacheInvalid,
			Cause: fmt.Sprintf("summary store disabled for this run: %v", err),
		})
		return nil
	}
	sp := opts.Obs.Start(obs.PhaseCacheIO, "")
	digests := store.Digests(g, db, fp)
	sp.End()
	c := &cacheState{store: opts.Resident.Over(st, opts.Obs), prog: g.Prog, digests: digests}
	if opts.CacheURL != "" {
		client, err := remote.NewClient(remote.Config{
			URL:         opts.CacheURL,
			Fingerprint: fp.Hash(),
			Obs:         opts.Obs,
		})
		if err != nil {
			res.Diagnostics = append(res.Diagnostics, Diagnostic{
				Kind:  DegradeCacheRemote,
				Cause: fmt.Sprintf("fleet store disabled for this run: %v", err),
			})
			return c
		}
		t := remote.NewTiered(st, client)
		// Only analyzed functions are looked up, and one resident at its
		// current digest never reaches the fleet tier: probe the rest.
		var fns []string
		for fn, d := range digests {
			if toAnalyze(fn) && !opts.Resident.Has(fn, d) {
				fns = append(fns, fn)
			}
		}
		t.Prime(fns)
		c.store, c.tiered = opts.Resident.Over(t, opts.Obs), t
	}
	return c
}

// finish closes out the run's cache use: the write-behind queue is
// drained (so a completed run's summaries really are on the fleet store
// before the process exits) and any remote degradation surfaces as one
// run-level cache-remote diagnostic. Results are never affected — the
// diagnostic records that fleet warmth was lost, not that anything is
// wrong with the report.
func (c *cacheState) finish(res *Result) {
	if c == nil || c.tiered == nil {
		return
	}
	c.tiered.Close()
	if cause := c.tiered.DegradedCause(); cause != "" {
		res.Diagnostics = append(res.Diagnostics, Diagnostic{
			Kind:  DegradeCacheRemote,
			Cause: fmt.Sprintf("fleet store unavailable, ran from local tier: %s", cause),
		})
	}
}

// cacheFingerprint projects the result-determining options into the
// store's Fingerprint. opts must already be withDefaults()-normalized, so
// every field here holds its effective (not zero) value.
func cacheFingerprint(opts Options) store.Fingerprint {
	lim := opts.SolverLimits.Normalized()
	return store.Fingerprint{
		MaxPaths:             opts.Exec.MaxPaths,
		MaxSubcases:          opts.Exec.MaxSubcases,
		NoPrune:              opts.Exec.NoPrune,
		KeepLocalConds:       opts.Exec.KeepLocalConds,
		MaxCat2Conds:         opts.MaxCat2Conds,
		AnalyzeAll:           opts.AnalyzeAll,
		SolverMaxConstraints: lim.MaxConstraints,
		SolverMaxSplits:      lim.MaxSplits,
		SpecDigest:           opts.specDigest,
	}
}

// load looks fn up in the store. hit means out replays a previous run's
// outcome (including its deterministic diagnostics) with each report's
// position and source file taken from fn's current IR: entries store no
// positions, so a function that only moved still hits. A non-nil diag
// reports an invalid entry; the caller appends it and analyzes cold.
func (c *cacheState) load(fn string) (out funcOutcome, hit bool, diag *Diagnostic) {
	d, ok := c.digests[fn]
	if !ok {
		return out, false, nil
	}
	e, err := c.store.Load(fn, d)
	if err != nil {
		return out, false, &Diagnostic{Fn: fn, Kind: DegradeCacheInvalid,
			Cause: fmt.Sprintf("stored entry unusable, analyzed cold: %v", err)}
	}
	if e == nil {
		return out, false, nil
	}
	f := c.prog.Funcs[fn]
	for _, r := range e.Reports {
		r.SrcFile, r.Pos = f.SrcFile, f.Pos
	}
	out.sum = e.Summary
	out.reports = e.Reports
	out.paths = e.Paths
	for _, dg := range e.Diags {
		k, ok := ParseDegradeKind(dg.Kind)
		if !ok || k == DegradeCacheRemote {
			// A kind this build doesn't know means the entry came from an
			// incompatible writer despite the version check; don't trust
			// the rest of it either. cache-remote is equally disqualifying:
			// it is a run-level wall-clock event that save() never
			// persists, so an entry carrying it was not written by us.
			return funcOutcome{}, false, &Diagnostic{Fn: fn, Kind: DegradeCacheInvalid,
				Cause: fmt.Sprintf("stored entry has unexpected diagnostic kind %q, analyzed cold", dg.Kind)}
		}
		out.diags = append(out.diags, Diagnostic{Fn: fn, Kind: k, Cause: dg.Cause})
		if k == DegradePathBudget || k == DegradeSubcaseBudget {
			out.trunc = true
		}
	}
	return out, true, nil
}

// save persists one freshly computed outcome. Outcomes shaped by
// wall-clock events — timeouts, recovered panics, cancellation — are
// never stored: replaying them would pin a transient degradation into
// every future run. Budget truncations and solver give-ups ARE stored;
// they are deterministic given the fingerprinted options. A non-nil diag
// reports the run's first write failure (later ones are suppressed).
func (c *cacheState) save(fn string, out funcOutcome) *Diagnostic {
	if out.timedOut || out.panicked || out.canceled || out.sum == nil {
		return nil
	}
	e := &store.Entry{Fn: fn, Summary: out.sum, Reports: out.reports, Paths: out.paths}
	for _, dg := range out.diags {
		e.Diags = append(e.Diags, store.Diag{Kind: dg.Kind.String(), Cause: dg.Cause})
	}
	if err := c.store.Save(fn, c.digests[fn], e); err != nil {
		if c.saveFail.CompareAndSwap(false, true) {
			return &Diagnostic{Fn: fn, Kind: DegradeCacheInvalid,
				Cause: fmt.Sprintf("store write failed (further write failures suppressed): %v", err)}
		}
	}
	return nil
}
