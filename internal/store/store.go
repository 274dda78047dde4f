// Package store persists function analysis results between runs as a
// disk-backed, content-addressed cache. See digest.go for the keying
// scheme. The on-disk layout is one file per function:
//
//	<dir>/entries/<hh>/<fnhash>.sum
//
// where fnhash is the first 24 hex digits of SHA-256(function name) and hh
// its first two digits (a fan-out level so no directory grows unbounded).
// A function has at most one entry — saving over a stale one replaces it
// (the store is self-evicting; replaced writes count as evictions).
//
// Each file is a one-line text header followed by a JSON payload:
//
//	RIDSUM <version> <fingerprint> <digest> <payload-sha256> <len> <fn>\n
//	{...}
//
// The header alone decides whether the payload is worth reading: a digest
// mismatch is ordinary staleness (silent miss, the entry will be
// overwritten), while a bad magic, version skew, fingerprint mismatch, or
// checksum failure means the file cannot be trusted and the caller should
// fall back to cold analysis with a cache-invalid diagnostic.
//
// Writes are atomic: the entry is staged in a temp file in the same
// directory and published with os.Rename, so a crash mid-write leaves at
// worst an ignored *.tmp* file, never a partial entry.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/ipp"
	"repro/internal/obs"
	"repro/internal/summary"
	"repro/internal/sym"
)

const magic = "RIDSUM"

// Diag is one deterministic degradation diagnostic attached to an entry.
// Kind uses the string form of core's DegradeKind (the core package owns
// the enum; the store only transports it). Nondeterministic outcomes —
// timeouts, panics, cancellation — are never stored, so every kind that
// appears here reproduces on a cold run with the same options.
type Diag struct {
	Kind  string `json:"kind"`
	Cause string `json:"cause,omitempty"`
}

// Entry is everything one function's analysis produced: its summary, its
// bug reports, the number of enumerated paths, and any deterministic
// degradation diagnostics. Provenance evidence is deliberately absent —
// `rid explain` always re-analyzes (see DESIGN.md) — and so are report
// positions: a loaded report has no SrcFile or Pos until the caller sets
// them from the function's current IR.
type Entry struct {
	Fn      string
	Summary *summary.Summary
	Reports []*ipp.Report
	Paths   int
	Diags   []Diag
}

// Store is an open cache directory bound to one options fingerprint.
// Methods are safe for concurrent use by multiple analysis workers:
// distinct functions touch distinct files, and same-function races resolve
// through atomic renames of identical content.
type Store struct {
	dir string
	fp  Digest
	o   *obs.Obs
}

// Open prepares dir (creating it if needed) for entries under fingerprint
// fp. The observer records hit/miss/eviction counters and cacheio spans;
// nil observes nothing.
func Open(dir string, fp Fingerprint, o *obs.Obs) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "entries"), 0o755); err != nil {
		return nil, fmt.Errorf("open summary store: %w", err)
	}
	return &Store{dir: dir, fp: fp.Hash(), o: o}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(fn string) string {
	return EntryPath(s.dir, EntryName(fn))
}

// Load looks up fn's entry and returns it, its expressions built in t, if
// its digest matches d. The three outcomes mirror the caller's three
// behaviors:
//
//	(e, nil)     — hit: replay e instead of analyzing.
//	(nil, nil)   — miss (no entry, or a stale digest): analyze cold, save.
//	(nil, err)   — invalid entry: analyze cold, emit a cache-invalid
//	               diagnostic carrying err.
func (s *Store) Load(t *sym.Table, fn string, d Digest) (*Entry, error) {
	sp := s.o.Start(obs.PhaseCacheIO, fn)
	defer sp.End()
	data, err := os.ReadFile(s.path(fn))
	if err != nil {
		if os.IsNotExist(err) {
			s.o.Count(obs.MStoreMisses, 1)
			return nil, nil
		}
		s.o.Count(obs.MStoreMisses, 1)
		return nil, fmt.Errorf("read entry: %w", err)
	}
	hdr, payload, err := parseHeader(data)
	if err != nil {
		s.o.Count(obs.MStoreMisses, 1)
		return nil, err
	}
	if hdr.digest != d {
		// Ordinary staleness: the function (or its cone, or the options)
		// changed since the entry was written. Silent miss.
		s.o.Count(obs.MStoreMisses, 1)
		return nil, nil
	}
	if hdr.fp != s.fp {
		// The digest folds the fingerprint in, so digest-equal entries
		// must be fingerprint-equal; disagreement means the header was
		// tampered with or corrupted in a way the digest check missed.
		s.o.Count(obs.MStoreMisses, 1)
		return nil, fmt.Errorf("entry fingerprint mismatch (have %s, want %s)",
			hdr.fp.String()[:12], s.fp.String()[:12])
	}
	if hdr.fn != fn {
		// A path collision (truncated name hash); treat as absent.
		s.o.Count(obs.MStoreMisses, 1)
		return nil, nil
	}
	e, err := decodePayload(t, hdr, payload)
	if err != nil {
		s.o.Count(obs.MStoreMisses, 1)
		return nil, err
	}
	s.o.Count(obs.MStoreHits, 1)
	return e, nil
}

// Save writes fn's entry under digest d, atomically replacing any previous
// entry for fn (counted as an eviction when one existed).
func (s *Store) Save(fn string, d Digest, e *Entry) error {
	sp := s.o.Start(obs.PhaseCacheIO, fn)
	defer sp.End()
	data, err := encodeEntry(e, s.fp, d)
	if err != nil {
		return fmt.Errorf("encode entry %s: %w", fn, err)
	}
	// writeAtomic does the temp+fsync+rename+dir-fsync dance; any error
	// surfaces as a cache-invalid diagnostic in core and the run proceeds
	// without the store.
	existed, err := writeAtomic(s.path(fn), data, true)
	if err != nil {
		return fmt.Errorf("save entry %s: %w", fn, err)
	}
	if existed {
		s.o.Count(obs.MStoreEvictions, 1)
	}
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LookupDigest finds the entry published under content digest d (any
// function name) and decodes it into t. It is the lookup behind `rid
// serve`'s GET /v1/summary/{digest}: content digests are global names, so
// a client holding one can fetch the corresponding summary without
// knowing which function produced it. Returns (nil, nil) when no entry
// carries d.
func (s *Store) LookupDigest(t *sym.Table, d Digest) (*Entry, error) {
	sp := s.o.Start(obs.PhaseCacheIO, "")
	defer sp.End()
	data, err := s.RawDigest(d)
	if err != nil || data == nil {
		return nil, err
	}
	return ParseEntry(t, data)
}

// ---------------------------------------------------------------------------
// Encoding

type header struct {
	version int
	fp      Digest
	digest  Digest
	sum     Digest // payload checksum
	length  int
	fn      string
}

// parseHeader splits data into a validated header and its checksummed
// payload. It must never panic, whatever the bytes: it is the surface
// FuzzStoreLoad drives.
func parseHeader(data []byte) (header, []byte, error) {
	var h header
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return h, nil, fmt.Errorf("truncated entry: no header line")
	}
	line, payload := string(data[:nl]), data[nl+1:]
	fields := strings.SplitN(line, " ", 7)
	if len(fields) != 7 || fields[0] != magic {
		return h, nil, fmt.Errorf("not a summary store entry")
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil {
		return h, nil, fmt.Errorf("bad version %q", fields[1])
	}
	h.version = v
	if v != FormatVersion {
		return h, nil, fmt.Errorf("entry format version %d, this build reads %d", v, FormatVersion)
	}
	if err := parseDigest(fields[2], &h.fp); err != nil {
		return h, nil, fmt.Errorf("bad fingerprint: %w", err)
	}
	if err := parseDigest(fields[3], &h.digest); err != nil {
		return h, nil, fmt.Errorf("bad digest: %w", err)
	}
	if err := parseDigest(fields[4], &h.sum); err != nil {
		return h, nil, fmt.Errorf("bad checksum: %w", err)
	}
	h.length, err = strconv.Atoi(fields[5])
	if err != nil || h.length < 0 {
		return h, nil, fmt.Errorf("bad payload length %q", fields[5])
	}
	h.fn, err = strconv.Unquote(fields[6])
	if err != nil {
		return h, nil, fmt.Errorf("bad function name %q", fields[6])
	}
	if len(payload) != h.length {
		return h, nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), h.length)
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(h.sum) {
		return h, nil, fmt.Errorf("payload checksum mismatch")
	}
	return h, payload, nil
}

func parseDigest(s string, d *Digest) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	if len(b) != sha256.Size {
		return fmt.Errorf("digest is %d bytes, want %d", len(b), sha256.Size)
	}
	copy(d[:], b)
	return nil
}

// ParseEntry decodes raw file bytes into an entry with full validation
// (header shape, version, checksum, payload structure) but no expectations
// about which function or digest it should be for. Its expressions are
// built in t. It is the fuzz surface: arbitrary bytes must yield an entry
// or an error, never a panic.
func ParseEntry(t *sym.Table, data []byte) (*Entry, error) {
	hdr, payload, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	return decodePayload(t, hdr, payload)
}

// The payload wire format. Summaries and expressions reuse the structural
// JSON of summary.DB.Save, so decoding rebuilds them through the
// constructors of the caller's table and every loaded expression is
// interned there.

// Reports are stored without SrcFile and Pos: both are the reported
// function's, and the replaying run sets them from its own IR, so a stored
// outcome stays valid when its function moves to another line or file.
type reportJSON struct {
	Fn       string           `json:"fn"`
	Refcount json.RawMessage  `json:"refcount"`
	Resource string           `json:"resource,omitempty"`
	EntryA   json.RawMessage  `json:"entry_a"`
	EntryB   json.RawMessage  `json:"entry_b"`
	PathA    int              `json:"path_a"`
	PathB    int              `json:"path_b"`
	DeltaA   int              `json:"delta_a"`
	DeltaB   int              `json:"delta_b"`
	Witness  map[string]int64 `json:"witness,omitempty"`
}

type entryJSON struct {
	Fn      string          `json:"fn"`
	Summary json.RawMessage `json:"summary"`
	Reports []reportJSON    `json:"reports,omitempty"`
	Paths   int             `json:"paths"`
	Diags   []Diag          `json:"diags,omitempty"`
}

func encodeEntry(e *Entry, fp, d Digest) ([]byte, error) {
	ej := entryJSON{Fn: e.Fn, Paths: e.Paths, Diags: e.Diags}
	var err error
	if ej.Summary, err = summary.MarshalSummary(e.Summary); err != nil {
		return nil, err
	}
	for _, r := range e.Reports {
		rj := reportJSON{
			Fn:       r.Fn,
			Resource: r.Resource,
			PathA:    r.PathA, PathB: r.PathB,
			DeltaA: r.DeltaA, DeltaB: r.DeltaB,
			Witness: r.Witness,
		}
		if rj.Refcount, err = summary.MarshalExpr(r.Refcount); err != nil {
			return nil, err
		}
		if rj.EntryA, err = summary.MarshalEntry(r.EntryA); err != nil {
			return nil, err
		}
		if rj.EntryB, err = summary.MarshalEntry(r.EntryB); err != nil {
			return nil, err
		}
		ej.Reports = append(ej.Reports, rj)
	}
	payload, err := json.Marshal(&ej)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	hdr := fmt.Sprintf("%s %d %s %s %s %d %s\n", magic, FormatVersion,
		fp, d, hex.EncodeToString(sum[:]), len(payload), strconv.Quote(e.Fn))
	return append([]byte(hdr), payload...), nil
}

func decodePayload(t *sym.Table, hdr header, payload []byte) (*Entry, error) {
	var ej entryJSON
	if err := json.Unmarshal(payload, &ej); err != nil {
		return nil, fmt.Errorf("decode entry payload: %w", err)
	}
	if ej.Fn != hdr.fn {
		return nil, fmt.Errorf("payload is for %q, header says %q", ej.Fn, hdr.fn)
	}
	if len(ej.Summary) == 0 || string(ej.Summary) == "null" {
		return nil, fmt.Errorf("entry for %q has no summary", ej.Fn)
	}
	sum, err := summary.UnmarshalSummary(t, ej.Summary)
	if err != nil {
		return nil, fmt.Errorf("decode summary: %w", err)
	}
	if sum.Fn != ej.Fn {
		return nil, fmt.Errorf("summary is for %q, entry says %q", sum.Fn, ej.Fn)
	}
	e := &Entry{Fn: ej.Fn, Summary: sum, Paths: ej.Paths, Diags: ej.Diags}
	for i, rj := range ej.Reports {
		r := &ipp.Report{
			Fn:       rj.Fn,
			Resource: rj.Resource,
			PathA:    rj.PathA, PathB: rj.PathB,
			DeltaA: rj.DeltaA, DeltaB: rj.DeltaB,
			Witness: rj.Witness,
		}
		if r.Refcount, err = summary.UnmarshalExpr(t, rj.Refcount); err != nil {
			return nil, fmt.Errorf("report %d refcount: %w", i, err)
		}
		if r.Refcount == nil {
			return nil, fmt.Errorf("report %d has no refcount", i)
		}
		if r.EntryA, err = unmarshalReportEntry(t, rj.EntryA); err != nil {
			return nil, fmt.Errorf("report %d entry A: %w", i, err)
		}
		if r.EntryB, err = unmarshalReportEntry(t, rj.EntryB); err != nil {
			return nil, fmt.Errorf("report %d entry B: %w", i, err)
		}
		e.Reports = append(e.Reports, r)
	}
	return e, nil
}

func unmarshalReportEntry(t *sym.Table, data json.RawMessage) (*summary.Entry, error) {
	if len(data) == 0 || string(data) == "null" {
		return nil, fmt.Errorf("missing")
	}
	return summary.UnmarshalEntry(t, data)
}
