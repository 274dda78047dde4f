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
//	                canonical IR of every member (sorted),
//	                name + predefined/db summary of every undefined callee)
//
// All members of an SCC share one combined digest: mutual recursion means
// any member's edit can change every member's summary. Editing a function
// changes its SCC's digest and, transitively, the digest of every SCC that
// can reach it — exactly the cone the edit can affect — while every other
// entry keeps its digest and stays valid.
//
// The canonical IR serialization has no source positions and no file
// names: nothing the analysis computes depends on them, and the only
// positions a stored outcome could carry — each report's function position
// and source file — are set from the current IR when the entry is
// replayed. A comment that shifts every line below it, or a file rename,
// therefore keeps every digest; only an edit to a function's code, or to
// a callee's, invalidates its entry.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"repro/internal/callgraph"
	"repro/internal/ir"
	"repro/internal/summary"
)

// FormatVersion is the on-disk format version. Bump it whenever the entry
// encoding, the digest recipe, or the semantics of any analysis stage
// change in a way that makes old entries unsound to replay. Version 2:
// the fingerprint gained the spec digest and reports a resource tag.
// Version 3: digests and entries carry no source positions or file names.
// Version 4: each function's callees come sorted from the frontend, which
// renumbers SCCs and reorders the extern records a digest hashes.
const FormatVersion = 4

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
	header := fmt.Sprintf("rid-store v%d\x00", FormatVersion)
	sccs := g.SCCs()
	sccDigest := make([]Digest, len(sccs))
	h := sha256.New()
	var buf []byte // canonical IR of one function, reused across functions
	// Each undefined callee's record is rendered once per call.
	externs := make(map[string][]byte)
	for i, members := range sccs {
		h.Reset()
		io.WriteString(h, header)
		h.Write(fph[:])
		// Callee SCCs precede i in SCCs() order, so their digests exist.
		for _, dep := range g.SCCSuccs(i) {
			h.Write(sccDigest[dep][:])
		}
		for _, m := range members {
			buf = appendCanonFunc(buf[:0], g.Prog.Funcs[m])
			h.Write(buf)
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
	rec := fmt.Appendf(nil, "extern\x00%s\x00", callee)
	if s != nil {
		rec = fmt.Appendf(rec, "pre=%t def=%t %s", s.Predefined, s.HasDefault, s)
	} else {
		rec = append(rec, "unknown"...)
	}
	return append(rec, 0)
}

// appendCanonFunc appends everything about a function that the analysis
// can observe to dst: its signature and every instruction, without
// positions.
func appendCanonFunc(dst []byte, f *ir.Func) []byte {
	dst = append(dst, "func "...)
	dst = append(dst, f.Name...)
	dst = append(dst, '(')
	for i, p := range f.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p...)
	}
	body := f.Body()
	dst = append(dst, ") ret="...)
	dst = strconv.AppendBool(dst, f.HasRet)
	dst = append(dst, " conds="...)
	dst = strconv.AppendInt(dst, int64(body.NumConds), 10)
	dst = append(dst, '\n')
	for _, b := range body.Blocks {
		dst = append(dst, 'b')
		dst = strconv.AppendInt(dst, int64(b.Index), 10)
		dst = append(dst, ":\n"...)
		for _, in := range b.Instrs {
			dst = in.AppendText(dst)
			dst = append(dst, '\n')
		}
	}
	return dst
}
