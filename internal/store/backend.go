package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sym"
)

// Backend is the summary-store contract the analysis pipeline programs
// against. The local disk Store implements it; so do the remote client
// and the tiered local+remote composition in internal/store/remote. The
// semantics every implementation must honor (and storetest.Conform
// verifies) are the local store's:
//
//	Load:         (e, nil) hit · (nil, nil) miss/stale · (nil, err) an
//	              entry existed but cannot be trusted. An implementation
//	              backed by an unreliable medium (the network) may report
//	              untrustworthy entries as plain misses instead — it must
//	              never return a wrong entry.
//	Save:         idempotent per (fn, digest); concurrent saves of the
//	              same content must converge to one valid entry.
//	LookupDigest: content digests are global names; (nil, nil) when no
//	              entry carries the digest.
//
// Load and LookupDigest decode into the caller's table t: an analysis run
// passes its own, so a decoded entry's expressions live with the run.
type Backend interface {
	Load(t *sym.Table, fn string, d Digest) (*Entry, error)
	Save(fn string, d Digest, e *Entry) error
	LookupDigest(t *sym.Table, d Digest) (*Entry, error)
}

var _ Backend = (*Store)(nil)

// EntryName is the file-safe name of fn's entry: the first 24 hex digits
// of SHA-256(fn). Client and server derive it independently — it is part
// of the wire format (DESIGN.md §13), so a GET for a name and a local
// path lookup always agree.
func EntryName(fn string) string {
	h := sha256.Sum256([]byte(fn))
	return hex.EncodeToString(h[:])[:24]
}

// EntryPath is the on-disk location of the named entry under a store
// rooted at dir: entries/<hh>/<name>.sum, with the two-digit fan-out
// level keeping any one directory bounded.
func EntryPath(dir, name string) string {
	return filepath.Join(dir, "entries", name[:2], name+".sum")
}

// RawInfo identifies a raw entry without decoding its payload: who it is
// for and under which digest and options fingerprint it was published.
type RawInfo struct {
	Fn          string
	Digest      Digest
	Fingerprint Digest
}

// ValidateRaw checks raw entry bytes end to end — magic, format version,
// header shape, payload length and checksum — and returns the entry's
// identity. It does NOT decode the JSON payload; both ends of the wire
// use it to refuse corrupt or version-skewed bytes before trusting (or
// storing, or serving) them. Never panics, whatever the bytes.
func ValidateRaw(data []byte) (RawInfo, error) {
	hdr, _, err := parseHeader(data)
	if err != nil {
		return RawInfo{}, err
	}
	return RawInfo{Fn: hdr.fn, Digest: hdr.digest, Fingerprint: hdr.fp}, nil
}

// EncodeEntry serializes e into the on-disk/wire format under the given
// fingerprint and digest: the checksummed RIDSUM header line followed by
// the JSON payload. The inverse of ParseEntry.
func EncodeEntry(e *Entry, fp, d Digest) ([]byte, error) {
	return encodeEntry(e, fp, d)
}

// Raw reads fn's entry bytes verbatim — header and payload, unvalidated.
// (nil, nil) when no entry exists. The write-behind tier uses it to ship
// exactly the bytes the local store published.
func (s *Store) Raw(fn string) ([]byte, error) {
	data, err := os.ReadFile(s.path(fn))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// RawDigest scans the store for the first entry published under content
// digest d (any function name) and returns its bytes verbatim, header and
// checksum validated. (nil, nil) when no entry carries d. Unreadable or
// corrupt files are skipped — they are Load's problem, reported on the
// analysis path. A linear scan: digest lookup is a debugging/API
// convenience, not the analysis hot path.
//
// No fingerprint comparison: the digest folds the fingerprint in (see
// digest.go), so digest equality already implies the entry was computed
// under the options the digest names. This lets a lookup-only Store
// (opened with a zero fingerprint, as `rid serve` and `rid storeserve` do)
// resolve digests written by analysis runs.
func (s *Store) RawDigest(d Digest) ([]byte, error) {
	var found []byte
	err := filepath.WalkDir(filepath.Join(s.dir, "entries"), func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".sum") {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil
		}
		if info, verr := ValidateRaw(data); verr != nil || info.Digest != d {
			return nil
		}
		found = data
		return filepath.SkipAll
	})
	if err != nil {
		return nil, fmt.Errorf("scan entries: %w", err)
	}
	return found, nil
}

// PutRaw validates raw entry bytes and publishes them for fn with the
// same atomic-write dance as Save. It refuses bytes that fail validation
// or that belong to a different function — a remote tier can never plant
// a mislabeled entry in the local cache.
func (s *Store) PutRaw(fn string, data []byte) error {
	return s.putRaw(fn, data, true)
}

// PutRawCached is PutRaw without the fsyncs. It exists for exactly one
// caller: the tiered backend repopulating the local cache with an entry
// just fetched from the fleet. Those bytes are re-fetchable (the fleet
// still has them) and checksum-validated on every read, so a torn write
// after a crash costs one cache miss, not correctness — while the fsync
// it skips is the dominant cost of a warm-over-the-wire run. Anything
// authoritative (Save, the store server's PUT handler) must keep using
// the durable path.
func (s *Store) PutRawCached(fn string, data []byte) error {
	return s.putRaw(fn, data, false)
}

func (s *Store) putRaw(fn string, data []byte, durable bool) error {
	info, err := ValidateRaw(data)
	if err != nil {
		return fmt.Errorf("put raw entry: %w", err)
	}
	if info.Fn != fn {
		return fmt.Errorf("put raw entry: bytes are for %q, want %q", info.Fn, fn)
	}
	if _, err := writeAtomic(s.path(fn), data, durable); err != nil {
		return fmt.Errorf("put raw entry %s: %w", fn, err)
	}
	return nil
}

// writeAtomic publishes data at path via a same-directory temp file,
// fsync, rename, and parent-directory fsync, creating the parent as
// needed. existed reports whether the rename replaced a previous entry.
// A crash at any point leaves at worst an ignored *.tmp* file, never a
// partial entry, and a successful durable return survives a crash.
// durable=false skips both fsyncs: the rename is still atomic against
// concurrent readers, but a crash may leave the final name with partial
// content — callers accept that only for data that is re-fetchable and
// checksum-validated on read (see PutRawCached).
func writeAtomic(path string, data []byte, durable bool) (existed bool, err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	_, statErr := os.Stat(path)
	existed = statErr == nil
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return existed, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return existed, err
	}
	// Sync before the rename publishes the file: otherwise a crash can
	// leave the final name pointing at zero-length or partial content —
	// exactly the corruption the atomic-write dance exists to rule out.
	if durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return existed, fmt.Errorf("sync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return existed, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		// Do not leave the staged file behind: a *.tmp* orphan per failed
		// publish would otherwise accumulate until the directory fills.
		os.Remove(tmp.Name())
		return existed, fmt.Errorf("publish: %w", err)
	}
	// The rename is only durable once the directory entry is: fsync the
	// parent so a crash after return cannot silently drop a "published"
	// entry.
	if durable {
		if err := syncDir(dir); err != nil {
			return existed, fmt.Errorf("sync dir: %w", err)
		}
	}
	return existed, nil
}
