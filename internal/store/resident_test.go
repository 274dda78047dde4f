package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/frontend/token"
	"repro/internal/obs"
	"repro/internal/sym"
)

// countingBackend is a Backend fake that serves a fixed (entry, error)
// answer and counts what reaches it, so a test can tell a memory hit from
// a backend read.
type countingBackend struct {
	mu      sync.Mutex
	loads   int
	entry   *Entry
	loadErr error
	saveErr error
}

func (b *countingBackend) Load(_ *sym.Table, fn string, d Digest) (*Entry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads++
	return b.entry, b.loadErr
}

func (b *countingBackend) Save(fn string, d Digest, e *Entry) error { return b.saveErr }

func (b *countingBackend) LookupDigest(*sym.Table, Digest) (*Entry, error) { return nil, nil }

func (b *countingBackend) backendLoads() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.loads
}

func TestResidentHitOnlyOnEqualDigest(t *testing.T) {
	st, reg := openTestStore(t, testFingerprint())
	r := NewResident()
	b := r.Over(st, obs.New(nil, reg))
	d := Digest{0xaa}
	if err := b.Save("f", d, testEntry("f")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	e, err := b.Load(sym.NewTable(), "f", d)
	if err != nil || e == nil || e.Summary.String() != testEntry("f").Summary.String() {
		t.Fatalf("Load at the saved digest = (%v, %v), want the saved entry", e, err)
	}
	if h, rh := reg.Counter(obs.MStoreHits), reg.Counter(obs.MResidentHits); h != 1 || rh != 1 {
		t.Fatalf("hits/resident hits = %d/%d, want 1/1", h, rh)
	}
	// Another digest is the disk store's question, answered as a stale miss.
	if e, err := b.Load(sym.NewTable(), "f", Digest{0xbb}); e != nil || err != nil {
		t.Fatalf("Load at another digest = (%v, %v), want a miss", e, err)
	}
	if !r.Has("f", d) || r.Has("f", Digest{0xbb}) || r.Has("g", d) {
		t.Fatal("Has must report exactly the (fn, digest) pairs made resident")
	}
	if h, m, rh := reg.Counter(obs.MStoreHits), reg.Counter(obs.MStoreMisses), reg.Counter(obs.MResidentHits); h != 1 || m != 1 || rh != 1 {
		t.Fatalf("hits/misses/resident hits = %d/%d/%d, want 1/1/1", h, m, rh)
	}

	// A backend hit becomes resident: the second load never reaches it.
	cb := &countingBackend{entry: testEntry("g")}
	b = r.Over(cb, nil)
	for i := 0; i < 2; i++ {
		if e, err := b.Load(sym.NewTable(), "g", d); e == nil || err != nil {
			t.Fatalf("Load %d = (%v, %v), want a hit", i, e, err)
		}
	}
	if n := cb.backendLoads(); n != 1 {
		t.Fatalf("backend loads = %d, want 1", n)
	}
	// A new digest for the same function replaces the resident entry.
	if err := b.Save("g", Digest{0xcc}, testEntry("g")); err != nil {
		t.Fatal(err)
	}
	if r.Has("g", d) || !r.Has("g", Digest{0xcc}) {
		t.Fatal("a save at a new digest must replace the function's resident entry")
	}
}

// TestResidentHitsShareSavedCopy pins the resident contract: every hit
// hands out the one resident entry, read-only, and it is a copy of what
// the saver passed, so the saver's later writes cannot reach it.
func TestResidentHitsShareSavedCopy(t *testing.T) {
	r := NewResident()
	b := r.Over(&countingBackend{}, nil)
	d := Digest{1}
	saved := testEntry("f")
	if err := b.Save("f", d, saved); err != nil {
		t.Fatal(err)
	}
	want := saved.Reports[0].Detail()
	saved.Reports[0].SrcFile, saved.Reports[0].Pos = "saver.c", token.Pos{File: "saver.c", Line: 9}
	saved.Reports = nil
	first, _ := b.Load(sym.NewTable(), "f", d)
	second, _ := b.Load(sym.NewTable(), "f", d)
	if first == nil || first != second {
		t.Fatalf("two hits returned %p and %p, want one shared entry", first, second)
	}
	if len(second.Reports) != 1 {
		t.Fatalf("hit has %d reports, want 1", len(second.Reports))
	}
	if got := second.Reports[0]; got.SrcFile != "drivers/gen/file0001.c" || got.Detail() != want {
		t.Fatalf("hit sees the saver's writes: %q %s", got.SrcFile, got.Detail())
	}
}

func TestResidentRefusesFailures(t *testing.T) {
	d := Digest{1}
	cases := []struct {
		name string
		cb   *countingBackend
	}{
		{"miss", &countingBackend{}},
		{"load error", &countingBackend{loadErr: errors.New("checksum mismatch")}},
		{"failed save", &countingBackend{saveErr: errors.New("disk full")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewResident()
			b := r.Over(tc.cb, nil)
			if _, err := b.Load(sym.NewTable(), "f", d); (err != nil) != (tc.cb.loadErr != nil) {
				t.Fatalf("Load error %v, want the backend's %v", err, tc.cb.loadErr)
			}
			if r.Has("f", d) {
				t.Fatalf("a backend %s became resident", tc.name)
			}
			if err := b.Save("f", d, testEntry("f")); (err != nil) != (tc.cb.saveErr != nil) {
				t.Fatalf("Save error %v, want the backend's %v", err, tc.cb.saveErr)
			}
			if r.Has("f", d) != (tc.cb.saveErr == nil) {
				t.Fatalf("resident after %s = %t", tc.name, r.Has("f", d))
			}
			if tc.cb.saveErr != nil {
				// Still not resident: every load asks the backend.
				b.Load(sym.NewTable(), "f", d)
				if n := tc.cb.backendLoads(); n != 2 {
					t.Fatalf("backend loads = %d, want 2", n)
				}
			}
		})
	}
}

func TestResidentCapEvicts(t *testing.T) {
	r := NewResident()
	b := r.Over(&countingBackend{}, nil)
	e := testEntry("f")
	for i := 0; i <= residentCap; i++ {
		if err := b.Save(fmt.Sprint("f", i), Digest{1}, e); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.m); n != residentCap {
		t.Fatalf("resident entries = %d, want the cap %d", n, residentCap)
	}
	newest := fmt.Sprint("f", residentCap)
	if !r.Has(newest, Digest{1}) {
		t.Fatal("the newest entry must be resident")
	}
	// Replacing a resident function's entry evicts nothing.
	if err := b.Save(newest, Digest{2}, e); err != nil {
		t.Fatal(err)
	}
	if n := len(r.m); n != residentCap {
		t.Fatalf("resident entries after a replace = %d, want %d", n, residentCap)
	}
}

// TestResidentConcurrentRuns drives one Resident from many runs at once,
// as the daemon's concurrent requests do, each reading the entries it
// hits; `go test -race` checks the sharing.
func TestResidentConcurrentRuns(t *testing.T) {
	st, _ := openTestStore(t, testFingerprint())
	r := NewResident()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := r.Over(st, nil)
			for i := 0; i < 20; i++ {
				fn := fmt.Sprintf("f%d", i%5)
				d := Digest{byte(i % 5), byte(w % 2)}
				e, err := b.Load(sym.NewTable(), fn, d)
				if err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				if e == nil {
					if err := b.Save(fn, d, testEntry(fn)); err != nil {
						t.Errorf("Save: %v", err)
					}
					continue
				}
				// A hit is shared with the other runs: read it only.
				if e.Reports[0].Fn != fn {
					t.Errorf("hit of %s reports function %q", fn, e.Reports[0].Fn)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
