package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sym"
)

// FuzzStoreLoad drives ParseEntry — the full on-disk decode surface:
// header parse, version check, checksum verification and payload decode —
// with arbitrary bytes. The contract is an entry or an error, never a
// panic, and any entry that decodes must satisfy the store's structural
// invariants and survive a re-encode/re-decode round trip unchanged.
func FuzzStoreLoad(f *testing.F) {
	valid, skew := fuzzSeeds(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated payload
	f.Add(skew)
	f.Add([]byte(fmt.Sprintf("%s %d\n", magic, FormatVersion))) // short header
	f.Add([]byte("not a store entry at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ParseEntry(sym.NewTable(), data)
		if err != nil {
			if e != nil {
				t.Fatal("ParseEntry returned both an entry and an error")
			}
			return
		}
		if e.Fn == "" || e.Summary == nil || e.Summary.Fn != e.Fn {
			t.Fatalf("decoded entry violates invariants: %+v", e)
		}
		for i, r := range e.Reports {
			if r == nil || r.Refcount == nil || r.EntryA == nil || r.EntryB == nil {
				t.Fatalf("decoded report %d is structurally incomplete: %+v", i, r)
			}
		}
		// Round trip: re-encoding the decoded entry and decoding again must
		// be lossless (the canonical bytes are a fixed point).
		re, err := encodeEntry(e, Digest{}, Digest{})
		if err != nil {
			t.Fatalf("re-encode of decoded entry failed: %v", err)
		}
		e2, err := ParseEntry(sym.NewTable(), re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if e2.Fn != e.Fn || e2.Paths != e.Paths ||
			len(e2.Reports) != len(e.Reports) || len(e2.Diags) != len(e.Diags) ||
			e2.Summary.String() != e.Summary.String() {
			t.Fatalf("round trip not lossless:\n  %+v\n  %+v", e, e2)
		}
	})
}

// fuzzSeeds builds the valid seed entry at the current FormatVersion and
// its version-skewed twin, and checks that they still exercise what they
// are named for: valid parses, skew fails the version check.
func fuzzSeeds(f *testing.F) (valid, skew []byte) {
	valid, err := encodeEntry(testEntry("drv_probe"), Fingerprint{MaxPaths: 64}.Hash(), Digest{7})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ParseEntry(sym.NewTable(), valid); err != nil {
		f.Fatalf("valid seed does not parse: %v", err)
	}
	cur := fmt.Sprintf("%s %d ", magic, FormatVersion)
	skew = bytes.Replace(valid, []byte(cur), []byte(fmt.Sprintf("%s %d ", magic, FormatVersion+1)), 1)
	if _, err := ParseEntry(sym.NewTable(), skew); err == nil || !strings.Contains(err.Error(), "version") {
		f.Fatalf("version-skew seed: got error %v, want a version error", err)
	}
	return valid, skew
}
