// Merkle-style content addressing for function summaries.
//
// A function's analysis outcome (summary, reports, deterministic
// diagnostics) is fully determined by three inputs: the analysis options,
// the function's own IR, and the summaries of its callees — which, for
// defined callees, are in turn determined by the same three inputs over
// their own call cones. The store therefore keys each function by a digest
// computed bottom-up over the SCC condensation of the call graph:
//
//	digest(SCC) = H(format version, options fingerprint,
//	                digests of callee SCCs,
//	                for every member (sorted): its own digest, then
//	                name + predefined/db summary of each undefined callee)
//
// A function's own digest is the SHA-256 of its canonical IR
// (ir.Func.Digest). It depends on nothing outside the function, so it is
// memoized with the lowered body: a warm `rid serve` request, whose
// frontend memo hands back the unchanged files' functions, hashes only the
// edited function's text again and then 32 bytes per SCC member.
//
// All members of an SCC share one combined digest: mutual recursion means
// any member's edit can change every member's summary. Editing a function
// changes its SCC's digest and, transitively, the digest of every SCC that
// can reach it — exactly the cone the edit can affect — while every other
// entry keeps its digest and stays valid.
//
// The canonical IR that ir.Func.Digest hashes has no source positions
// and no file names: nothing the analysis computes depends on them, and
// the only positions a stored outcome could carry — each report's
// function position and source file — are taken from the current IR when
// the entry is replayed. A comment that shifts every line below it, or a file rename,
// therefore keeps every digest; only an edit to a function's code, or to
// a callee's, invalidates its entry.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/callgraph"
	"repro/internal/summary"
)

// FormatVersion is the on-disk format version. Bump it whenever the entry
// encoding, the digest recipe, or the semantics of any analysis stage
// change in a way that makes old entries unsound to replay. Version 2:
// the fingerprint gained the spec digest and reports a resource tag.
// Version 3: digests and entries carry no source positions or file names.
// Version 4: each function's callees come sorted from the frontend, which
// renumbers SCCs and reorders the extern records a digest hashes.
// Version 5: a function with exactly MaxPaths paths is no longer
// path-budget truncated, so it has no §5.2 default entry and no
// path-budget diagnostic. Version 6: an SCC digest hashes each member's
// own digest instead of its canonical IR text.
const FormatVersion = 6

// digestHeader opens every SCC digest. It is a []byte because the SHA-256
// hash has no WriteString, and io.WriteString would copy a string on every
// call.
var digestHeader = []byte("rid-store v" + strconv.Itoa(FormatVersion) + "\x00")

// Digest is a SHA-256 content address.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether d is the zero digest (no digest computed).
func (d Digest) IsZero() bool { return d == Digest{} }

// Fingerprint captures every analysis option that can change a function's
// summary, reports, or deterministic diagnostics. Two runs with equal
// fingerprints and equal per-function digests compute identical outcomes,
// so entries are interchangeable between them. Wall-clock options
// (FuncTimeout) and scheduling options (Workers, StealSeed) are
// deliberately absent: they cannot change results, only how long they
// take.
type Fingerprint struct {
	MaxPaths             int
	MaxSubcases          int
	NoPrune              bool
	KeepLocalConds       bool
	MaxCat2Conds         int
	AnalyzeAll           bool
	SolverMaxConstraints int // normalized: zero never appears here
	SolverMaxSplits      int
	// SpecDigest is the content fingerprint of the run's resource specs
	// (spec.Specs.Fingerprint). Two runs over the same corpus with
	// different spec packs track different resources and must never share
	// summaries, even under the same cache directory.
	SpecDigest string
}

// Hash returns the fingerprint's digest, which seeds every SCC digest and
// is recorded in every entry header. It still hashes the literal
// nobucket=false, from when Step III bucketing could be turned off, so
// that stores written then keep their digests and still hit.
func (f Fingerprint) Hash() Digest {
	h := sha256.New()
	fmt.Fprintf(h, "rid-fingerprint v%d maxpaths=%d maxsub=%d noprune=%t keeplocals=%t cat2=%d all=%t nobucket=false maxcons=%d maxsplits=%d spec=%s",
		FormatVersion, f.MaxPaths, f.MaxSubcases, f.NoPrune, f.KeepLocalConds,
		f.MaxCat2Conds, f.AnalyzeAll, f.SolverMaxConstraints, f.SolverMaxSplits, f.SpecDigest)
	var d Digest
	h.Sum(d[:0])
	return d
}

// Digests computes the content digest of every defined function in g,
// bottom-up over the SCC condensation. db supplies the summaries of
// undefined callees (predefined API specs, or summaries carried over from
// earlier multi-file groups); defined callees contribute through their own
// SCC digests instead, so a summary never needs to exist before its digest
// does.
func Digests(g *callgraph.Graph, db *summary.DB, fp Fingerprint) map[string]Digest {
	fph := fp.Hash()
	sccs := g.SCCs()
	sccDigest := make([]Digest, len(sccs))
	h := sha256.New()
	// Each undefined callee's record is rendered once per call.
	externs := make(map[string][]byte)
	for i, members := range sccs {
		h.Reset()
		h.Write(digestHeader)
		h.Write(fph[:])
		// Callee SCCs precede i in SCCs() order, so their digests exist.
		for _, dep := range g.SCCSuccs(i) {
			h.Write(sccDigest[dep][:])
		}
		for _, m := range members {
			own := g.Prog.Funcs[m].Digest()
			h.Write(own[:])
			for _, callee := range g.All[m] {
				if _, defined := g.Prog.Funcs[callee]; defined {
					continue
				}
				rec, ok := externs[callee]
				if !ok {
					rec = externRecord(callee, db.Get(callee))
					externs[callee] = rec
				}
				h.Write(rec)
			}
		}
		h.Sum(sccDigest[i][:0])
	}
	out := make(map[string]Digest, len(g.Nodes))
	for _, fn := range g.Nodes {
		out[fn] = sccDigest[g.SCCOf(fn)]
	}
	return out
}

// externRecord renders an undefined callee for its callers' digests: its
// name and the summary it resolves to (nil when unknown).
func externRecord(callee string, s *summary.Summary) []byte {
	rec := make([]byte, 0, 512)
	rec = append(append(append(rec, "extern\x00"...), callee...), 0)
	if s != nil {
		rec = strconv.AppendBool(append(rec, "pre="...), s.Predefined)
		rec = strconv.AppendBool(append(rec, " def="...), s.HasDefault)
		rec = s.AppendText(append(rec, ' '))
	} else {
		rec = append(rec, "unknown"...)
	}
	return append(rec, 0)
}
