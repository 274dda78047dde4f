// Package summary defines function summaries (§4.3 of the RID paper): sets
// of entries (cons, changes, return) describing how a function changes
// refcounts and what it returns under constraints on its arguments and
// return value. It also provides the summary database shared across the
// inter-procedural analysis and JSON persistence for the multi-file mode
// of §5.3.
package summary

import (
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/sym"
)

// Entry is one summary entry: under constraint Cons, the function applies
// Changes to refcounts and returns Ret (nil when no value is returned or
// the function is void).
type Entry struct {
	Cons    sym.Set
	Changes map[string]Change // keyed by Change.RC.Key()
	Ret     *sym.Expr
}

// Change is a net delta to one refcount, identified by a symbolic
// expression over the function's arguments and return value (e.g.
// [dev].pm or [0].rc).
type Change struct {
	RC    *sym.Expr
	Delta int
}

// NewEntry returns an entry with no changes. The Changes map is allocated
// lazily by AddChange: most entries in real corpora never change a
// refcount, and entries are the highest-volume allocation of Step II.
func NewEntry(cons sym.Set, ret *sym.Expr) *Entry {
	return &Entry{Cons: cons, Ret: ret}
}

// AddChange accumulates delta onto the refcount rc; a zero net change is
// removed from the map.
func (e *Entry) AddChange(rc *sym.Expr, delta int) {
	if e.Changes == nil {
		e.Changes = make(map[string]Change, 4)
	}
	key := rc.Key()
	c := e.Changes[key]
	c.RC = rc
	c.Delta += delta
	if c.Delta == 0 {
		delete(e.Changes, key)
	} else {
		e.Changes[key] = c
	}
}

// Clone returns a deep-enough copy (constraint sets are immutable).
func (e *Entry) Clone() *Entry {
	n := &Entry{Cons: e.Cons, Ret: e.Ret}
	if len(e.Changes) > 0 {
		n.Changes = make(map[string]Change, len(e.Changes))
		for k, v := range e.Changes {
			n.Changes[k] = v
		}
	}
	return n
}

// SameChanges reports whether two entries have identical refcount changes
// (the consistency test of §4.5: inconsistent iff some refcount differs,
// with absent keys counting as zero).
func (e *Entry) SameChanges(o *Entry) bool {
	if len(e.Changes) != len(o.Changes) {
		return false
	}
	for k, c := range e.Changes {
		if oc, ok := o.Changes[k]; !ok || oc.Delta != c.Delta {
			return false
		}
	}
	return true
}

// DifferingRefcounts returns the refcount expressions whose deltas differ
// between the entries, sorted by key for determinism.
func (e *Entry) DifferingRefcounts(o *Entry) []*sym.Expr {
	var small [8]string
	keys := small[:0]
	for k, c := range e.Changes {
		if o.Changes[k].Delta != c.Delta {
			keys = append(keys, k)
		}
	}
	for k, c := range o.Changes {
		if _, both := e.Changes[k]; !both && c.Delta != 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	slices.Sort(keys)
	out := make([]*sym.Expr, len(keys))
	for i, k := range keys {
		c, ok := e.Changes[k]
		if !ok {
			c = o.Changes[k]
		}
		out[i] = c.RC
	}
	return out
}

// Instantiate returns the entry with formal arguments and [0] replaced
// according to m (Algorithm 1: "formal arguments are replaced by the
// expressions of actual arguments and [0] is replaced by the variable
// holding the return value"), built in t.
func (e *Entry) Instantiate(t *sym.Table, m map[string]*sym.Expr) *Entry {
	return e.InstantiateInto(t, &Entry{}, m)
}

// InstantiateInto is Instantiate writing the result into dst, reusing
// dst's Changes map. It returns dst. The symbolic executor calls this
// with a per-task scratch entry: an instantiated entry is fully consumed
// (conditions folded into the path state, changes accumulated) before the
// next instantiation reuses the scratch, and everything the consumer
// keeps — interned expressions, the substituted constraint Set — is
// immutable, so reuse never aliases live state.
//
// The result is built in t, which must own m's values. An entry another
// table built — a spec summary, or one the resident store tier kept from
// an earlier run — is first imported into t, once per table (see
// importInto).
func (e *Entry) InstantiateInto(t *sym.Table, dst *Entry, m map[string]*sym.Expr) *Entry {
	e = e.importInto(t)
	dst.Cons = e.Cons.Subst(t, m)
	dst.Ret = nil
	if e.Ret != nil {
		dst.Ret = e.Ret.Subst(t, m)
	}
	clear(dst.Changes)
	if len(e.Changes) > 0 {
		if dst.Changes == nil {
			dst.Changes = make(map[string]Change, len(e.Changes))
		}
		for _, c := range e.Changes {
			rc := c.RC.Subst(t, m)
			nc := dst.Changes[rc.Key()]
			nc.RC = rc
			nc.Delta += c.Delta
			dst.Changes[rc.Key()] = nc
		}
	}
	return dst
}

// importInto returns e with every expression in t: e itself when t built
// it, else a copy rebuilt in t. The copy is memoized in t, so a run pays
// one rebuild per foreign entry it instantiates, and only for those. An
// entry's expressions all come from one table, so one lookup decides.
func (e *Entry) importInto(t *sym.Table) *Entry {
	x := e.Ret
	if conds := e.Cons.Conds(); len(conds) > 0 {
		x = conds[0]
	}
	if x == nil {
		for _, c := range e.Changes {
			x = c.RC
			break
		}
	}
	if x == nil || t.Owns(x) {
		return e
	}
	if v, ok := t.LoadImport(e); ok {
		return v.(*Entry)
	}
	var small [8]*sym.Expr
	conds := small[:0]
	for _, c := range e.Cons.Conds() {
		conds = append(conds, t.Import(c))
	}
	n := &Entry{Cons: sym.NewSet(t, conds), Ret: t.Import(e.Ret)}
	if len(e.Changes) > 0 {
		n.Changes = make(map[string]Change, len(e.Changes))
		for _, c := range e.Changes {
			rc := t.Import(c.RC)
			n.Changes[rc.Key()] = Change{RC: rc, Delta: c.Delta}
		}
	}
	return t.StoreImport(e, n).(*Entry)
}

// AppendChangesSignature appends to dst a canonical identity of the
// entry's refcount changes, the sorted (refcount key, delta) pairs, and
// returns the extended slice. Two entries have equal signatures iff
// SameChanges holds, so Step III can bucket entries by signature and only
// cross-bucket pairs can form an IPP.
func (e *Entry) AppendChangesSignature(dst []byte) []byte {
	var small [8]string
	for _, k := range e.appendSortedKeys(small[:0]) {
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = strconv.AppendInt(dst, int64(e.Changes[k].Delta), 10)
		dst = append(dst, ';')
	}
	return dst
}

// appendSortedKeys appends the keys of e's changes to dst in sorted order
// and returns the extended slice.
func (e *Entry) appendSortedKeys(dst []string) []string {
	n := len(dst)
	for k := range e.Changes {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// SortedChanges returns the changes sorted by refcount key.
func (e *Entry) SortedChanges() []Change {
	keys := e.appendSortedKeys(make([]string, 0, len(e.Changes)))
	out := make([]Change, len(keys))
	for i, k := range keys {
		out[i] = e.Changes[k]
	}
	return out
}

// String renders the entry in the paper's (cons, changes, return) layout.
func (e *Entry) String() string {
	return string(e.AppendText(make([]byte, 0, 64)))
}

// AppendText appends the String form of e to dst and returns the extended
// slice.
func (e *Entry) AppendText(dst []byte) []byte {
	dst = append(dst, "cons: "...)
	dst = e.Cons.AppendText(dst)
	dst = append(dst, "; changes:"...)
	if len(e.Changes) == 0 {
		dst = append(dst, " -"...)
	}
	var small [8]string
	for _, k := range e.appendSortedKeys(small[:0]) {
		c := e.Changes[k]
		dst = append(dst, ' ')
		dst = append(dst, c.RC.String()...)
		dst = append(dst, ':')
		dst = AppendDelta(dst, c.Delta)
	}
	dst = append(dst, "; return: "...)
	if e.Ret == nil {
		return append(dst, '-')
	}
	return append(dst, e.Ret.String()...)
}

// AppendDelta appends d with an explicit sign, as fmt's %+d renders it.
func AppendDelta(dst []byte, d int) []byte {
	if d >= 0 {
		dst = append(dst, '+')
	}
	return strconv.AppendInt(dst, int64(d), 10)
}

// ---------------------------------------------------------------------------

// Summary is the summary of one function.
type Summary struct {
	Fn         string
	Params     []string // formal parameter names the entries' [arg] terms use
	Entries    []*Entry
	HasDefault bool // carries a default entry (§5.2: partial analysis)
	Predefined bool // given as an API specification, not computed
}

// New returns an empty summary for fn.
func New(fn string) *Summary { return &Summary{Fn: fn} }

// Default returns the default summary used for functions that are unknown
// or not (fully) analyzed: no refcount changes and no conditions on the
// return value, built in t.
func Default(t *sym.Table, fn string) *Summary {
	s := New(fn)
	s.HasDefault = true
	s.Entries = append(s.Entries, NewEntry(sym.True(), t.Ret()))
	return s
}

// ChangesRefcounts reports whether any entry changes any refcount — the
// category-1 test of §5.2.
func (s *Summary) ChangesRefcounts() bool {
	for _, e := range s.Entries {
		if len(e.Changes) > 0 {
			return true
		}
	}
	return false
}

// String renders all entries, one per line.
func (s *Summary) String() string {
	return string(s.AppendText(make([]byte, 0, 64*(len(s.Entries)+1))))
}

// AppendText appends the String form of s to b and returns the extended
// slice.
func (s *Summary) AppendText(b []byte) []byte {
	b = append(b, "summary "...)
	b = append(b, s.Fn...)
	b = append(b, ":\n"...)
	for i, e := range s.Entries {
		b = append(b, "  entry "...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, ": "...)
		b = e.AppendText(b)
		b = append(b, '\n')
	}
	return b
}

// ---------------------------------------------------------------------------

// DB is the function summary database. All methods are safe for concurrent
// use; stored summaries themselves are treated as immutable after Put.
type DB struct {
	mu sync.RWMutex
	m  map[string]*Summary
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{m: make(map[string]*Summary)} }

// Get returns the summary for fn, or nil.
func (db *DB) Get(fn string) *Summary {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.m[fn]
}

// Put stores a summary, replacing any previous one.
func (db *DB) Put(s *Summary) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.m[s.Fn] = s
}

// Has reports whether fn has a summary.
func (db *DB) Has(fn string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.m[fn]
	return ok
}

// Len returns the number of summaries stored.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.m)
}

// Names returns the summarized function names, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	out := make([]string, 0, len(db.m))
	for k := range db.m {
		out = append(out, k)
	}
	db.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Merge copies every summary from other into db (other wins on conflict).
func (db *DB) Merge(other *DB) {
	other.mu.RLock()
	defer other.mu.RUnlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	for k, v := range other.m {
		db.m[k] = v
	}
}
