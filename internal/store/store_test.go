package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/frontend/token"
	"repro/internal/ipp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/sym"
)

func testFingerprint() Fingerprint {
	return Fingerprint{
		MaxPaths: 100, MaxSubcases: 10, MaxCat2Conds: 3,
		SolverMaxConstraints: 4096, SolverMaxSplits: 12,
	}
}

// testEntry builds a representative entry: a two-entry summary with
// constraints and changes, one report with a witness, and a deterministic
// diagnostic.
func testEntry(fn string) *Entry {
	tb := sym.NewTable()
	s := summary.New(fn)
	s.Params = []string{"dev", "flags"}
	e1 := summary.NewEntry(sym.True().And(tb, tb.Cond(tb.Arg("dev"), ir.NE, tb.Null())), tb.Const(0))
	e1.AddChange(tb.Field(tb.Arg("dev"), "pm"), 1)
	e2 := summary.NewEntry(sym.True(), tb.Const(-1))
	s.Entries = append(s.Entries, e1, e2)
	rep := &ipp.Report{
		Fn:       fn,
		SrcFile:  "drivers/gen/file0001.c",
		Pos:      token.Pos{File: "drivers/gen/file0001.c", Line: 42, Column: 5},
		Refcount: tb.Field(tb.Arg("dev"), "pm"),
		EntryA:   e1,
		EntryB:   e2,
		PathA:    0, PathB: 3,
		DeltaA: 1, DeltaB: 0,
		Witness: map[string]int64{"dev": 1, "$ret": 0},
	}
	return &Entry{
		Fn:      fn,
		Summary: s,
		Reports: []*ipp.Report{rep},
		Paths:   7,
		Diags:   []Diag{{Kind: "path-budget", Cause: "path enumeration truncated at MaxPaths=100"}},
	}
}

func openTestStore(t *testing.T, fp Fingerprint) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := Open(t.TempDir(), fp, obs.New(nil, reg))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, reg
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tb := sym.NewTable()
	st, reg := openTestStore(t, testFingerprint())
	var d Digest
	d[0] = 0xaa
	e := testEntry("drv_probe")
	if err := st.Save("drv_probe", d, e); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := st.Load(tb, "drv_probe", d)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got == nil {
		t.Fatal("Load: miss, want hit")
	}
	if got.Fn != e.Fn || got.Paths != e.Paths {
		t.Errorf("Fn/Paths = %q/%d, want %q/%d", got.Fn, got.Paths, e.Fn, e.Paths)
	}
	if got.Summary.String() != e.Summary.String() {
		t.Errorf("summary round-trip:\ngot:\n%s\nwant:\n%s", got.Summary, e.Summary)
	}
	if len(got.Reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(got.Reports))
	}
	gr, wr := got.Reports[0], e.Reports[0]
	// Positions are not stored: the replaying run sets them from its IR.
	if gr.Pos.IsValid() || gr.SrcFile != "" {
		t.Errorf("loaded report carries a position: %v %q", gr.Pos, gr.SrcFile)
	}
	gr.SrcFile, gr.Pos = wr.SrcFile, wr.Pos
	if gr.String() != wr.String() || gr.Detail() != wr.Detail() {
		t.Errorf("report round-trip:\ngot:  %s\nwant: %s", gr, wr)
	}
	if len(gr.Witness) != 2 || gr.Witness["dev"] != 1 {
		t.Errorf("witness round-trip: %v", gr.Witness)
	}
	// Loaded expressions are rebuilt through the constructors of the
	// loading table, so they are interned: identical to ones built there.
	if gr.Refcount != tb.Field(tb.Arg("dev"), "pm") {
		t.Errorf("loaded refcount not interned: %p vs %p", gr.Refcount, tb.Field(tb.Arg("dev"), "pm"))
	}
	if len(got.Diags) != 1 || got.Diags[0] != e.Diags[0] {
		t.Errorf("diags round-trip: %v", got.Diags)
	}
	if h, m := reg.Counter(obs.MStoreHits), reg.Counter(obs.MStoreMisses); h != 1 || m != 0 {
		t.Errorf("hits/misses = %d/%d, want 1/0", h, m)
	}
}

func TestLoadMissAbsent(t *testing.T) {
	st, reg := openTestStore(t, testFingerprint())
	e, err := st.Load(sym.NewTable(), "nothing", Digest{1})
	if e != nil || err != nil {
		t.Fatalf("Load absent = (%v, %v), want (nil, nil)", e, err)
	}
	if m := reg.Counter(obs.MStoreMisses); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
}

func TestLoadMissStaleDigest(t *testing.T) {
	st, reg := openTestStore(t, testFingerprint())
	if err := st.Save("f", Digest{1}, testEntry("f")); err != nil {
		t.Fatal(err)
	}
	// Different digest (edited function): a silent miss, not an error.
	e, err := st.Load(sym.NewTable(), "f", Digest{2})
	if e != nil || err != nil {
		t.Fatalf("Load stale = (%v, %v), want (nil, nil)", e, err)
	}
	if h, m := reg.Counter(obs.MStoreHits), reg.Counter(obs.MStoreMisses); h != 0 || m != 1 {
		t.Errorf("hits/misses = %d/%d, want 0/1", h, m)
	}
}

func TestEvictionOnOverwrite(t *testing.T) {
	st, reg := openTestStore(t, testFingerprint())
	if err := st.Save("f", Digest{1}, testEntry("f")); err != nil {
		t.Fatal(err)
	}
	if ev := reg.Counter(obs.MStoreEvictions); ev != 0 {
		t.Fatalf("evictions after first save = %d, want 0", ev)
	}
	if err := st.Save("f", Digest{2}, testEntry("f")); err != nil {
		t.Fatal(err)
	}
	if ev := reg.Counter(obs.MStoreEvictions); ev != 1 {
		t.Errorf("evictions after overwrite = %d, want 1", ev)
	}
	// The replacement won: the new digest hits, the old misses.
	if e, err := st.Load(sym.NewTable(), "f", Digest{2}); e == nil || err != nil {
		t.Errorf("Load new digest = (%v, %v), want hit", e, err)
	}
	if e, err := st.Load(sym.NewTable(), "f", Digest{1}); e != nil || err != nil {
		t.Errorf("Load old digest = (%v, %v), want silent miss", e, err)
	}
}

// ---------------------------------------------------------------------------
// Fault injection

// corrupt writes a mutated copy of fn's entry file and returns the store.
func corruptedEntry(t *testing.T, mutate func([]byte) []byte) (*Store, Digest) {
	t.Helper()
	st, _ := openTestStore(t, testFingerprint())
	d := Digest{7}
	if err := st.Save("victim", d, testEntry("victim")); err != nil {
		t.Fatal(err)
	}
	p := st.path("victim")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return st, d
}

// wantInvalid asserts Load classifies the entry as corrupt (error, no
// panic) with an error mentioning want.
func wantInvalid(t *testing.T, st *Store, d Digest, want string) {
	t.Helper()
	e, err := st.Load(sym.NewTable(), "victim", d)
	if e != nil {
		t.Fatalf("Load corrupt entry returned an entry: %+v", e)
	}
	if err == nil {
		t.Fatal("Load corrupt entry: no error, want invalid")
	}
	if want != "" && !strings.Contains(err.Error(), want) {
		t.Errorf("error = %q, want mention of %q", err, want)
	}
}

func TestLoadTruncatedFile(t *testing.T) {
	st, d := corruptedEntry(t, func(b []byte) []byte { return b[:len(b)/2] })
	wantInvalid(t, st, d, "")
}

func TestLoadTruncatedHeader(t *testing.T) {
	st, d := corruptedEntry(t, func(b []byte) []byte { return b[:10] })
	wantInvalid(t, st, d, "no header line")
}

func TestLoadEmptyFile(t *testing.T) {
	st, d := corruptedEntry(t, func(b []byte) []byte { return nil })
	wantInvalid(t, st, d, "")
}

func TestLoadFlippedPayloadByte(t *testing.T) {
	st, d := corruptedEntry(t, func(b []byte) []byte {
		b[len(b)-3] ^= 0x40
		return b
	})
	wantInvalid(t, st, d, "checksum")
}

func TestLoadVersionSkew(t *testing.T) {
	st, d := corruptedEntry(t, func(b []byte) []byte {
		cur := fmt.Sprintf("RIDSUM %d ", FormatVersion)
		return []byte(strings.Replace(string(b), cur, "RIDSUM 99 ", 1))
	})
	wantInvalid(t, st, d, "version")
}

func TestLoadFingerprintMismatch(t *testing.T) {
	// Rewrite the header's fingerprint field in place; digest and payload
	// stay valid, so only the fingerprint check can catch it.
	oldFP := testFingerprint().Hash().String()
	newFP := Fingerprint{MaxPaths: 5}.Hash().String()
	st, d := corruptedEntry(t, func(b []byte) []byte {
		return []byte(strings.Replace(string(b), oldFP, newFP, 1))
	})
	wantInvalid(t, st, d, "fingerprint")
}

func TestLoadGarbage(t *testing.T) {
	st, d := corruptedEntry(t, func(b []byte) []byte {
		return []byte("RIDSUM over troubled water\nnot json")
	})
	wantInvalid(t, st, d, "")
}

func TestLoadNameCollision(t *testing.T) {
	// An entry whose header names a different function (as a truncated-hash
	// collision would produce) is treated as absent, not as corruption.
	st, _ := openTestStore(t, testFingerprint())
	d := Digest{9}
	if err := st.Save("actual", d, testEntry("actual")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(st.path("actual"))
	if err != nil {
		t.Fatal(err)
	}
	p := st.path("imposter")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := st.Load(sym.NewTable(), "imposter", d)
	if e != nil || err != nil {
		t.Fatalf("Load collided entry = (%v, %v), want (nil, nil)", e, err)
	}
}

func TestMidWriteCrashLeavesNoEntry(t *testing.T) {
	// Simulate a crash between CreateTemp and Rename: a temp file with a
	// partial payload sits next to the final path. It must never be read
	// as an entry, and a later Save must still land atomically.
	st, _ := openTestStore(t, testFingerprint())
	d := Digest{3}
	p := st.path("f")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	full, err := encodeEntry(testEntry("f"), st.fp, d)
	if err != nil {
		t.Fatal(err)
	}
	tmp := p + ".tmp1234567"
	if err := os.WriteFile(tmp, full[:len(full)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if e, lerr := st.Load(sym.NewTable(), "f", d); e != nil || lerr != nil {
		t.Fatalf("Load with only a temp file = (%v, %v), want (nil, nil)", e, lerr)
	}
	if err := st.Save("f", d, testEntry("f")); err != nil {
		t.Fatalf("Save after crash debris: %v", err)
	}
	if e, lerr := st.Load(sym.NewTable(), "f", d); e == nil || lerr != nil {
		t.Fatalf("Load after save = (%v, %v), want hit", e, lerr)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("crash debris was touched: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Digests

const digestSrc = `
int leaf(int x) { if (x > 0) return 1; return 0; }
int mid(int x) { return leaf(x); }
int other(int x) { return x + 2; }
int top(struct device *d) {
    pm_runtime_get_sync(d);
    if (mid(1) > 0)
        pm_runtime_put(d);
    return 0;
}
`

func digestsOf(t *testing.T, src string, fp Fingerprint) map[string]Digest {
	t.Helper()
	return digestsOfFile(t, "dig.c", src, fp)
}

func digestsOfFile(t *testing.T, name, src string, fp Fingerprint) map[string]Digest {
	t.Helper()
	prog, err := lower.SourceString(name, src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	db := summary.NewDB()
	spec.LinuxDPM().ApplyTo(db)
	return Digests(callgraph.Build(prog), db, fp)
}

func TestDigestsDeterministic(t *testing.T) {
	a := digestsOf(t, digestSrc, testFingerprint())
	b := digestsOf(t, digestSrc, testFingerprint())
	if len(a) != 4 {
		t.Fatalf("digests for %d functions, want 4", len(a))
	}
	for fn, d := range a {
		if b[fn] != d {
			t.Errorf("digest of %s differs across identical builds", fn)
		}
	}
}

func TestDigestsInvalidateExactCone(t *testing.T) {
	before := digestsOf(t, digestSrc, testFingerprint())
	edited := strings.Replace(digestSrc, "if (x > 0) return 1;", "if (x > 1) return 1;", 1)
	after := digestsOf(t, edited, testFingerprint())
	// leaf changed; mid and top reach it through calls; other does not.
	for _, fn := range []string{"leaf", "mid", "top"} {
		if before[fn] == after[fn] {
			t.Errorf("digest of %s unchanged after editing leaf (it is in the cone)", fn)
		}
	}
	if before["other"] != after["other"] {
		t.Error("digest of other changed after editing leaf (it is outside the cone)")
	}
}

func TestDigestsIgnoreLineShiftsAndRenames(t *testing.T) {
	// A comment line moves every function's positions and the file gets a
	// new name, but no code changed: every digest must stay, or a warm run
	// would re-analyze the whole file. Replay takes report positions from
	// the current IR, so nothing stale is served.
	before := digestsOf(t, digestSrc, testFingerprint())
	after := digestsOfFile(t, "moved/dig2.c", "/* header */\n"+digestSrc, testFingerprint())
	for fn, d := range before {
		if after[fn] != d {
			t.Errorf("digest of %s changed after a line shift and a rename", fn)
		}
	}
}

func TestDigestsFoldInFingerprint(t *testing.T) {
	a := digestsOf(t, digestSrc, testFingerprint())
	fp2 := testFingerprint()
	fp2.MaxPaths = 50
	b := digestsOf(t, digestSrc, fp2)
	for fn := range a {
		if a[fn] == b[fn] {
			t.Errorf("digest of %s identical under different options fingerprints", fn)
		}
	}
}

// TestSaveCleansTempOnPublishFailure pins the publish path's failure
// behavior: when the final rename cannot succeed, Save must report an
// error AND remove the staged temp file — orphaned *.tmp* files would
// otherwise accumulate one per failed publish until the cache directory
// fills.
func TestSaveCleansTempOnPublishFailure(t *testing.T) {
	st, _ := openTestStore(t, testFingerprint())
	fn := "drv_probe"
	// Occupy the entry's final path with a non-empty directory so
	// os.Rename must fail (ENOTEMPTY/EEXIST), whatever the platform.
	p := st.path(fn)
	if err := os.MkdirAll(filepath.Join(p, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := st.Save(fn, Digest{1}, testEntry(fn))
	if err == nil {
		t.Fatal("Save must fail when the entry cannot be published")
	}
	if !strings.Contains(err.Error(), "publish") {
		t.Errorf("error should identify the publish step: %v", err)
	}
	glob, _ := filepath.Glob(filepath.Join(filepath.Dir(p), "*.tmp*"))
	if len(glob) != 0 {
		t.Fatalf("staged temp files left behind after failed publish: %v", glob)
	}
}

// TestLookupDigestFindsEntry pins the digest-addressed lookup behind
// `rid serve`'s GET /v1/summary/{digest}.
func TestLookupDigestFindsEntry(t *testing.T) {
	st, _ := openTestStore(t, testFingerprint())
	var d Digest
	d[0], d[31] = 0x5e, 0x01
	if err := st.Save("drv_probe", d, testEntry("drv_probe")); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("other_fn", Digest{9}, testEntry("other_fn")); err != nil {
		t.Fatal(err)
	}
	e, err := st.LookupDigest(sym.NewTable(), d)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil || e.Fn != "drv_probe" {
		t.Fatalf("LookupDigest: got %+v, want drv_probe's entry", e)
	}
	if e.Summary == nil || len(e.Reports) != 1 || e.Paths != 7 {
		t.Fatalf("decoded entry incomplete: %+v", e)
	}
	// An unknown digest is an ordinary miss, not an error.
	if e, err := st.LookupDigest(sym.NewTable(), Digest{0xff}); err != nil || e != nil {
		t.Fatalf("unknown digest: got (%v, %v), want (nil, nil)", e, err)
	}
}

// TestLookupDigestSkipsCorrupt: corrupt neighbors must not break a lookup.
func TestLookupDigestSkipsCorrupt(t *testing.T) {
	st, _ := openTestStore(t, testFingerprint())
	var d Digest
	d[0] = 0x77
	if err := st.Save("good_fn", d, testEntry("good_fn")); err != nil {
		t.Fatal(err)
	}
	bad := st.path("bad_fn")
	if err := os.MkdirAll(filepath.Dir(bad), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("not a store entry at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := st.LookupDigest(sym.NewTable(), d)
	if err != nil || e == nil || e.Fn != "good_fn" {
		t.Fatalf("lookup with corrupt neighbor: got (%v, %v)", e, err)
	}
}
