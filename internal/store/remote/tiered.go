package remote

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sym"
)

// writeBehindDepth bounds the ship-to-fleet queue. When the writer falls
// behind (slow or dead remote) further saves drop their remote copy
// instead of blocking analysis — the local entry is already durable, the
// fleet just stays a bit colder. Drops are counted (DroppedPuts), never
// silent.
const writeBehindDepth = 256

// Tiered layers the fleet store behind a local one as a warm cache:
//
//	Load:   local first; on a local miss, fetch from the fleet, validate,
//	        write through to local, and replay. Any remote failure is a
//	        plain miss — the function is analyzed locally, exactly as if
//	        no fleet store were configured.
//	Save:   local first (authoritative, synchronous); the raw local bytes
//	        are then shipped to the fleet from a bounded write-behind
//	        queue that never blocks analysis.
//	Lookup: local first, then the fleet (see TestSummaryLookupOrder).
//
// This is the lenient half of the remote pairing: Client reports remote
// failures as errors, Tiered converts every one of them into "local
// only" and records the first cause for the run-level cache-remote
// diagnostic (DegradedCause). A dead, slow, or corrupt remote can cost
// warmth, never correctness.
//
// Safe for concurrent use by analysis workers. Close flushes the
// write-behind queue; a Tiered that is never closed (the long-lived
// lookup backend in `rid serve`) keeps its writer goroutine for the
// process lifetime.
type Tiered struct {
	local  *store.Store
	client *Client
	o      *obs.Obs

	primeMu sync.Mutex
	known   map[string]bool // probed entry name → fleet had it at prime time

	wbMu      sync.Mutex // serializes enqueue vs close (send on a closed channel panics)
	wbClosed  bool
	wb        chan string
	writerDid sync.WaitGroup

	dropped atomic.Int64

	causeMu sync.Mutex
	cause   string
}

var _ store.Backend = (*Tiered)(nil)

// NewTiered combines a local store with a fleet client and starts the
// write-behind writer. Counters land in the client's observer.
func NewTiered(local *store.Store, client *Client) *Tiered {
	t := &Tiered{
		local:  local,
		client: client,
		o:      client.o,
		wb:     make(chan string, writeBehindDepth),
	}
	t.writerDid.Add(1)
	go t.writer()
	return t
}

// note records the first remote failure as the run's degradation cause.
func (t *Tiered) note(err error) {
	if err == nil {
		return
	}
	t.causeMu.Lock()
	if t.cause == "" {
		t.cause = err.Error()
	}
	t.causeMu.Unlock()
}

// DegradedCause returns the first remote failure seen (""  when the
// fleet store behaved). Core turns it into the run-level cache-remote
// diagnostic.
func (t *Tiered) DegradedCause() string {
	t.causeMu.Lock()
	defer t.causeMu.Unlock()
	return t.cause
}

// DroppedPuts returns how many entries were not shipped because the
// write-behind queue was full.
func (t *Tiered) DroppedPuts() int64 { return t.dropped.Load() }

// Prime probes the fleet for the named functions in batches, so that
// during the run a local miss for a function the fleet has never seen
// skips the remote round trip entirely. Functions not named are not
// probed, and their local misses ask the fleet. Best-effort: a failed
// probe leaves the backend unprimed (every local miss asks the fleet, and
// the circuit breaker bounds the damage if it is down).
func (t *Tiered) Prime(fns []string) {
	names := make([]string, len(fns))
	for i, fn := range fns {
		names[i] = store.EntryName(fn)
	}
	known := make(map[string]bool, len(names))
	for len(names) > 0 {
		chunk := names
		if len(chunk) > maxHasBatch {
			chunk = chunk[:maxHasBatch]
		}
		names = names[len(chunk):]
		has, err := t.client.HasBatch(chunk)
		if err != nil {
			t.note(err)
			return
		}
		for i, name := range chunk {
			known[name] = has[i]
		}
	}
	t.primeMu.Lock()
	t.known = known
	t.primeMu.Unlock()
}

// skipRemote reports whether priming proved the fleet lacks fn.
func (t *Tiered) skipRemote(name string) bool {
	t.primeMu.Lock()
	defer t.primeMu.Unlock()
	has, probed := t.known[name]
	return probed && !has
}

// Load implements store.Backend. Local errors (an untrustworthy local
// entry) surface unchanged — that is the cache-invalid path and has
// nothing to do with the fleet. Remote failures of any kind are misses.
func (t *Tiered) Load(syms *sym.Table, fn string, d store.Digest) (*store.Entry, error) {
	e, err := t.local.Load(syms, fn, d)
	if e != nil || err != nil {
		return e, err
	}
	name := store.EntryName(fn)
	if t.skipRemote(name) {
		t.o.Count(obs.MRemoteMisses, 1)
		return nil, nil
	}
	data, err := t.client.GetRaw(fn, d)
	if err != nil {
		t.note(err)
		return nil, nil
	}
	if data == nil {
		t.o.Count(obs.MRemoteMisses, 1)
		return nil, nil
	}
	re, err := store.ParseEntry(syms, data)
	if err != nil {
		// Header validated but payload didn't decode: count it against
		// the fleet's integrity, analyze locally.
		t.o.Count(obs.MRemoteIntegrity, 1)
		t.note(err)
		return nil, nil
	}
	// Write through so the next run (and LookupDigest) hit locally.
	// Best-effort: a full local disk degrades to re-fetching, not to
	// failing the load that already succeeded. Non-durable on purpose —
	// the fleet still holds these bytes, so skipping the per-entry fsync
	// (the dominant cost of a warm-over-the-wire run) risks nothing but
	// a re-fetch after a crash.
	if err := t.local.PutRawCached(fn, data); err != nil {
		t.note(err)
	}
	t.o.Count(obs.MRemoteHits, 1)
	return re, nil
}

// Save implements store.Backend: local synchronously (authoritative),
// fleet asynchronously via the bounded write-behind queue.
func (t *Tiered) Save(fn string, d store.Digest, e *store.Entry) error {
	if err := t.local.Save(fn, d, e); err != nil {
		return err
	}
	t.wbMu.Lock()
	if !t.wbClosed {
		select {
		case t.wb <- fn:
		default:
			t.dropped.Add(1)
		}
	}
	t.wbMu.Unlock()
	return nil
}

// LookupDigest implements store.Backend: local first, then the fleet
// (lenient — a remote failure means "not found here").
func (t *Tiered) LookupDigest(syms *sym.Table, d store.Digest) (*store.Entry, error) {
	e, err := t.local.LookupDigest(syms, d)
	if e != nil || err != nil {
		return e, err
	}
	re, err := t.client.LookupDigest(syms, d)
	if err != nil {
		t.note(err)
		return nil, nil
	}
	return re, nil
}

// writer drains the write-behind queue, shipping each entry's raw local
// bytes. Reading back from the local store (rather than re-encoding the
// in-memory entry) guarantees the fleet receives byte-for-byte what the
// local store persisted.
func (t *Tiered) writer() {
	defer t.writerDid.Done()
	for fn := range t.wb {
		data, err := t.local.Raw(fn)
		if err != nil || data == nil {
			continue
		}
		if err := t.client.PutRaw(fn, data); err != nil {
			t.note(err)
		}
	}
}

// Close flushes the write-behind queue and stops the writer. Saves
// arriving after Close skip the fleet copy. Idempotent.
func (t *Tiered) Close() {
	t.wbMu.Lock()
	already := t.wbClosed
	if !already {
		t.wbClosed = true
		close(t.wb)
	}
	t.wbMu.Unlock()
	if !already {
		t.writerDid.Wait()
	}
}
