package store

import (
	"sync"

	"repro/internal/ipp"
	"repro/internal/obs"
	"repro/internal/sym"
)

// residentCap bounds how many functions a Resident holds decoded. It is
// far above any corpus the daemon serves; past it, an arbitrary entry
// makes room, and the evicted function costs one disk read next time.
const residentCap = 1 << 16

// Resident is a process-lifetime tier of decoded store entries, shared by
// every run of a long-lived process (the `rid serve` daemon) over one
// store directory. It keeps at most one entry per function, exactly as
// the disk store does, and replaces it when the function's digest moves.
//
// A memory hit means what a disk hit means: digests fold in the options
// fingerprint and the function's whole callee cone, so an entry resident
// under (fn, d) is the entry the store holds, or would hold, under
// (fn, d). Entries enter only from a validated backend hit or after a
// successful Save, so nothing the backend refused is ever served. Safe
// for concurrent use.
//
// A hit hands out the resident entry itself, shared by every run that
// hits it, so a loaded entry is read-only: a run that needs other report
// positions (its function moved) copies the reports it replays. The entry
// keeps the expressions of the run that decoded or computed it, and a
// later run imports an entry into its own table only when it first
// instantiates it (see summary.Entry.InstantiateInto).
type Resident struct {
	mu sync.Mutex
	m  map[string]residentEntry
}

type residentEntry struct {
	d Digest
	e *Entry
}

// NewResident returns an empty resident tier.
func NewResident() *Resident {
	return &Resident{m: make(map[string]residentEntry)}
}

// Has reports whether fn is resident under digest d. A nil Resident
// holds nothing.
func (r *Resident) Has(fn string, d Digest) bool {
	return r.get(fn, d) != nil
}

func (r *Resident) get(fn string, d Digest) *Entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if re, ok := r.m[fn]; ok && re.d == d {
		return re.e
	}
	return nil
}

// put makes e resident for fn under d.
func (r *Resident) put(fn string, d Digest, e *Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[fn]; !ok && len(r.m) >= residentCap {
		for victim := range r.m {
			delete(r.m, victim)
			break
		}
	}
	r.m[fn] = residentEntry{d: d, e: e}
}

// copyReports returns e with its own report structs, so that the saver
// keeps no way to write into what later runs replay. The summary is
// shared, as summaries are immutable once computed. The copies share one
// backing array.
func (e *Entry) copyReports() *Entry {
	c := *e
	if len(e.Reports) > 0 {
		reps := make([]ipp.Report, len(e.Reports))
		c.Reports = make([]*ipp.Report, len(e.Reports))
		for i, rep := range e.Reports {
			reps[i] = *rep
			c.Reports[i] = &reps[i]
		}
	}
	return &c
}

// Over returns b with r in front of it for one run, counting into o. A
// nil Resident returns b unchanged.
//
//	Load:         the resident entry itself (read-only) when its digest
//	              equals d, counted as a store hit and a resident hit;
//	              otherwise b's answer, and a hit from b becomes
//	              resident. Misses and errors never do.
//	Save:         b first; a copy of the entry's reports becomes
//	              resident only if b succeeds.
//	LookupDigest: b's answer.
func (r *Resident) Over(b Backend, o *obs.Obs) Backend {
	if r == nil {
		return b
	}
	return &residentBackend{Backend: b, r: r, o: o}
}

// residentBackend is one run's view of a Resident over its backend;
// LookupDigest goes straight to the backend.
type residentBackend struct {
	Backend
	r *Resident
	o *obs.Obs
}

func (rb *residentBackend) Load(t *sym.Table, fn string, d Digest) (*Entry, error) {
	if e := rb.r.get(fn, d); e != nil {
		sp := rb.o.Start(obs.PhaseCacheIO, fn)
		rb.o.Count(obs.MStoreHits, 1)
		rb.o.Count(obs.MResidentHits, 1)
		sp.End()
		return e, nil
	}
	e, err := rb.Backend.Load(t, fn, d)
	if e != nil && err == nil {
		rb.r.put(fn, d, e)
	}
	return e, err
}

func (rb *residentBackend) Save(fn string, d Digest, e *Entry) error {
	if err := rb.Backend.Save(fn, d, e); err != nil {
		return err
	}
	rb.r.put(fn, d, e.copyReports())
	return nil
}
