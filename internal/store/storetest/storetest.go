// Package storetest is the conformance suite for summary-store backends:
// one battery of contract-and-fault-injection tests that every
// store.Backend implementation — the local disk store, the fleet-store
// client, the client talking through a misbehaving proxy — must pass.
// The battery encodes the contract store.Backend documents: three-outcome
// Load, idempotent digest-addressed Save, global LookupDigest, and above
// all that no injected fault (torn write, truncated body, checksum flip,
// concurrent put race, failed disk write) ever produces a wrong entry or
// a panic — only hits, misses, and honest errors.
package storetest

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/ipp"
	"repro/internal/ir"
	"repro/internal/store"
	"repro/internal/summary"
	"repro/internal/sym"
)

// Target is one backend under conformance test.
type Target struct {
	// Backend is the implementation under test.
	Backend store.Backend
	// Dir is the authoritative entries root — the directory whose files
	// back the Backend's entries (the store directory itself, or the
	// server's directory for a wire backend). Fault injection edits files
	// under it directly, simulating torn writes and bit rot beneath the
	// implementation.
	Dir string
	// LoadErrorsAreMisses relaxes the corrupt-entry outcome: a wire
	// backend may report an untrustworthy entry as a plain miss (the
	// server refuses to serve what fails validation) where the local
	// store returns an error. Both are within contract; returning a
	// decoded entry from corrupt bytes never is.
	LoadErrorsAreMisses bool
	// SaveErrorsMayBeSilent relaxes the blocked-write outcome: a lenient
	// tiered backend absorbs remote write failures by design. Strict
	// backends (local store, plain client) must surface them.
	SaveErrorsMayBeSilent bool
}

// Entry builds a representative entry for fn: a two-entry summary with
// constraints and refcount changes, one report with a witness, and a
// deterministic diagnostic — every payload shape the wire and disk
// formats must round-trip.
func Entry(fn string) *store.Entry {
	tb := sym.NewTable()
	s := summary.New(fn)
	s.Params = []string{"dev", "flags"}
	e1 := summary.NewEntry(sym.True().And(tb, tb.Cond(tb.Arg("dev"), ir.NE, tb.Null())), tb.Const(0))
	e1.AddChange(tb.Field(tb.Arg("dev"), "pm"), 1)
	e2 := summary.NewEntry(sym.True(), tb.Const(-1))
	s.Entries = append(s.Entries, e1, e2)
	rep := &ipp.Report{
		Fn:       fn,
		Refcount: tb.Field(tb.Arg("dev"), "pm"),
		EntryA:   e1,
		EntryB:   e2,
		PathA:    0, PathB: 3,
		DeltaA: 1, DeltaB: 0,
		Witness: map[string]int64{"dev": 1, "$ret": 0},
	}
	return &store.Entry{
		Fn:      fn,
		Summary: s,
		Reports: []*ipp.Report{rep},
		Paths:   7,
		Diags:   []store.Diag{{Kind: "path-budget", Cause: "path enumeration truncated at MaxPaths=100"}},
	}
}

// digestFor derives a deterministic per-function digest for test entries.
func digestFor(fn string) store.Digest {
	var d store.Digest
	copy(d[:], fn)
	d[len(d)-1] = 0x5a
	return d
}

// entryFile is where fn's entry lives under the target's authoritative
// directory.
func entryFile(tgt Target, fn string) string {
	return store.EntryPath(tgt.Dir, store.EntryName(fn))
}

// mutateEntry rewrites fn's backing file through mutate — the fault
// injector. The write bypasses the backend entirely, as bit rot does.
func mutateEntry(t *testing.T, tgt Target, fn string, mutate func([]byte) []byte) {
	t.Helper()
	path := entryFile(tgt, fn)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s for fault injection: %v", path, err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatalf("injecting fault into %s: %v", path, err)
	}
}

// saved stores fn's entry through the backend and fails the test on
// error.
func saved(t *testing.T, tgt Target, fn string) store.Digest {
	t.Helper()
	d := digestFor(fn)
	if err := tgt.Backend.Save(fn, d, Entry(fn)); err != nil {
		t.Fatalf("Save(%s): %v", fn, err)
	}
	return d
}

// wantCorrupt asserts the Load outcome for a corrupted entry: an error,
// or — for LoadErrorsAreMisses targets — a miss. Never a hit.
func wantCorrupt(t *testing.T, tgt Target, fn string, d store.Digest, what string) {
	t.Helper()
	e, err := tgt.Backend.Load(sym.NewTable(), fn, d)
	if e != nil {
		t.Fatalf("%s: Load returned an entry from corrupted bytes", what)
	}
	if err == nil && !tgt.LoadErrorsAreMisses {
		t.Fatalf("%s: Load returned (nil, nil); strict backends must report the corruption", what)
	}
}

// Conform runs the full conformance battery against tgt. Each subtest
// uses its own function names, so one Target serves the whole battery.
func Conform(t *testing.T, tgt Target) {
	t.Run("roundtrip", func(t *testing.T) {
		fn := "conform_roundtrip"
		d := saved(t, tgt, fn)
		got, err := tgt.Backend.Load(sym.NewTable(), fn, d)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if got == nil {
			t.Fatal("Load: miss, want hit")
		}
		want := Entry(fn)
		if got.Fn != want.Fn || got.Paths != want.Paths {
			t.Errorf("Fn/Paths = %q/%d, want %q/%d", got.Fn, got.Paths, want.Fn, want.Paths)
		}
		if got.Summary.String() != want.Summary.String() {
			t.Errorf("summary round-trip:\ngot:\n%s\nwant:\n%s", got.Summary, want.Summary)
		}
		if len(got.Reports) != 1 || got.Reports[0].Detail() != want.Reports[0].Detail() {
			t.Errorf("report round-trip mismatch")
		}
		if len(got.Diags) != 1 || got.Diags[0] != want.Diags[0] {
			t.Errorf("diags round-trip: %v", got.Diags)
		}
	})

	t.Run("miss-absent", func(t *testing.T) {
		e, err := tgt.Backend.Load(sym.NewTable(), "conform_never_saved", digestFor("conform_never_saved"))
		if e != nil || err != nil {
			t.Fatalf("Load(absent) = (%v, %v), want (nil, nil)", e, err)
		}
	})

	t.Run("miss-stale-digest", func(t *testing.T) {
		fn := "conform_stale"
		saved(t, tgt, fn)
		other := digestFor(fn)
		other[0] ^= 0xff
		e, err := tgt.Backend.Load(sym.NewTable(), fn, other)
		if e != nil || err != nil {
			t.Fatalf("Load(stale digest) = (%v, %v), want silent miss", e, err)
		}
	})

	t.Run("lookup-digest", func(t *testing.T) {
		fn := "conform_lookup"
		d := saved(t, tgt, fn)
		e, err := tgt.Backend.LookupDigest(sym.NewTable(), d)
		if err != nil {
			t.Fatalf("LookupDigest: %v", err)
		}
		if e == nil || e.Fn != fn {
			t.Fatalf("LookupDigest: got %+v, want entry for %s", e, fn)
		}
		var unknown store.Digest
		unknown[0] = 0xee
		e, err = tgt.Backend.LookupDigest(sym.NewTable(), unknown)
		if e != nil || err != nil {
			t.Fatalf("LookupDigest(unknown) = (%v, %v), want (nil, nil)", e, err)
		}
	})

	t.Run("idempotent-resave", func(t *testing.T) {
		fn := "conform_resave"
		d := saved(t, tgt, fn)
		if err := tgt.Backend.Save(fn, d, Entry(fn)); err != nil {
			t.Fatalf("second Save: %v", err)
		}
		e, err := tgt.Backend.Load(sym.NewTable(), fn, d)
		if err != nil || e == nil {
			t.Fatalf("Load after resave = (%v, %v), want hit", e, err)
		}
	})

	t.Run("concurrent-put-race", func(t *testing.T) {
		// Same content from many writers must converge to one valid entry
		// (digest-addressed puts are idempotent); distinct functions must
		// not interfere.
		const writers = 8
		fn := "conform_race_same"
		d := digestFor(fn)
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = tgt.Backend.Save(fn, d, Entry(fn))
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("racing Save %d: %v", i, err)
			}
		}
		e, err := tgt.Backend.Load(sym.NewTable(), fn, d)
		if err != nil || e == nil {
			t.Fatalf("Load after racing saves = (%v, %v), want hit", e, err)
		}
		var dwg sync.WaitGroup
		for i := 0; i < writers; i++ {
			dwg.Add(1)
			go func(i int) {
				defer dwg.Done()
				dfn := fmt.Sprintf("conform_race_distinct_%d", i)
				if err := tgt.Backend.Save(dfn, digestFor(dfn), Entry(dfn)); err != nil {
					t.Errorf("distinct Save %s: %v", dfn, err)
				}
			}(i)
		}
		dwg.Wait()
		for i := 0; i < writers; i++ {
			dfn := fmt.Sprintf("conform_race_distinct_%d", i)
			e, err := tgt.Backend.Load(sym.NewTable(), dfn, digestFor(dfn))
			if err != nil || e == nil || e.Fn != dfn {
				t.Fatalf("Load(%s) after concurrent distinct saves = (%v, %v)", dfn, e, err)
			}
		}
	})

	t.Run("truncated-body", func(t *testing.T) {
		fn := "conform_truncated"
		d := saved(t, tgt, fn)
		mutateEntry(t, tgt, fn, func(b []byte) []byte { return b[:len(b)/2] })
		wantCorrupt(t, tgt, fn, d, "truncated body")
	})

	t.Run("checksum-flip", func(t *testing.T) {
		fn := "conform_bitflip"
		d := saved(t, tgt, fn)
		mutateEntry(t, tgt, fn, func(b []byte) []byte {
			b[len(b)-3] ^= 0x40 // flip a payload bit; the header checksum must catch it
			return b
		})
		wantCorrupt(t, tgt, fn, d, "checksum flip")
	})

	t.Run("torn-header", func(t *testing.T) {
		fn := "conform_torn"
		d := saved(t, tgt, fn)
		mutateEntry(t, tgt, fn, func(b []byte) []byte { return b[:10] })
		wantCorrupt(t, tgt, fn, d, "torn header")
	})

	t.Run("garbage-file", func(t *testing.T) {
		fn := "conform_garbage"
		d := saved(t, tgt, fn)
		mutateEntry(t, tgt, fn, func(b []byte) []byte {
			for i := range b {
				b[i] = byte(i*131 + 7)
			}
			return b
		})
		wantCorrupt(t, tgt, fn, d, "garbage bytes")
	})

	t.Run("empty-file", func(t *testing.T) {
		fn := "conform_empty"
		d := saved(t, tgt, fn)
		mutateEntry(t, tgt, fn, func([]byte) []byte { return nil })
		wantCorrupt(t, tgt, fn, d, "empty file")
	})

	t.Run("write-blocked", func(t *testing.T) {
		// The ENOSPC analogue that works under root (file permissions do
		// not): occupy the entry's fan-out directory with a regular file,
		// so the implementation's MkdirAll fails with ENOTDIR. A strict
		// backend must surface the failed write as an error — and the
		// failure must not poison later writes once space returns.
		fn, block := blockableFn(t, tgt)
		if err := os.WriteFile(block, []byte("disk full stand-in"), 0o644); err != nil {
			t.Fatalf("blocking %s: %v", block, err)
		}
		err := tgt.Backend.Save(fn, digestFor(fn), Entry(fn))
		if err == nil && !tgt.SaveErrorsMayBeSilent {
			t.Fatalf("Save with blocked directory succeeded; want an error")
		}
		if err := os.Remove(block); err != nil {
			t.Fatalf("unblocking: %v", err)
		}
		if err := tgt.Backend.Save(fn, digestFor(fn), Entry(fn)); err != nil {
			t.Fatalf("Save after unblocking: %v", err)
		}
		e, lerr := tgt.Backend.Load(sym.NewTable(), fn, digestFor(fn))
		if lerr != nil || e == nil {
			t.Fatalf("Load after recovery = (%v, %v), want hit", e, lerr)
		}
	})
}

// blockableFn finds a function name whose fan-out directory does not
// exist yet under tgt.Dir (so a regular file can take its place) and
// returns the name plus the directory path to occupy.
func blockableFn(t *testing.T, tgt Target) (fn, blockPath string) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		fn = fmt.Sprintf("conform_blocked_%d", i)
		dir := filepath.Dir(entryFile(tgt, fn))
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			return fn, dir
		}
	}
	t.Fatal("no unused fan-out directory found")
	return "", ""
}
