// Hash-consing for symbolic expressions, scoped to whoever builds them.
//
// Every constructor is a method of a Table, which deduplicates
// structurally equal nodes: two expressions built in one table from the
// same parts are the same pointer. Because children are interned before
// their parents, a node's identity is its kind, scalar payload, and its
// children's pointers, so lookups compare a few words and never rebuild a
// string. Each node carries a nonzero ID and a canonical key string
// computed exactly once, so expression equality is pointer (or ID)
// comparison and Set/solver cache keys are O(n) ID joins instead of
// O(tree) string construction.
//
// A table lives as long as what built it: package core makes one per
// analysis run and spec.Parse one per parsed spec set, and a table is
// dropped with its owner. Nodes are carved from chunked slabs and their
// key bytes from a byte arena, so building a node costs no allocation of
// its own; a run that builds few nodes pays a few small chunks. IDs come
// from one process-wide counter, so nodes of different tables never share
// one. An expression built by another table — a spec summary, an entry the
// resident store tier keeps across runs — enters a run through Import.
package sym

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/racebuild"
)

// Sizes: a table's first slab holds slabMin nodes and its first arena
// arenaMin bytes, and each later chunk doubles, up to the max; a shard's
// index starts at indexMin slots. Few shards keep a small table small
// (each touched shard costs an index); the lock stripes only need to
// outnumber the workers that intern at once.
const (
	shardBits  = 2
	shardCount = 1 << shardBits
	slabMin    = 32
	slabMax    = 1024
	arenaMin   = 512
	arenaMax   = 64 << 10
	indexMin   = 16
)

// nextID numbers nodes across every table of the process.
var nextID atomic.Uint64

// Table is a hash-consing expression table. Its constructors are safe for
// concurrent use. The zero value is not usable; call NewTable.
type Table struct {
	shards [shardCount]shard

	// mem guards the chunks new nodes and their keys are carved from;
	// it is taken inside a shard lock, only when a node is new.
	mem   sync.Mutex
	slab  []Expr // new nodes are carved from slab[len:cap]
	arena []byte // new key bytes are appended within arena's capacity

	// imports memoizes values rebuilt from other tables' objects (see
	// LoadImport); it is dropped with the table.
	importMu sync.Mutex
	imports  map[any]any
}

// shard is one lock stripe of a table's index, created on first use.
type shard struct {
	mu    sync.Mutex
	index []*Expr // open addressing; power-of-two length, nil is empty
	n     int     // nodes in index
	_     [24]byte
}

// NewTable returns an empty table.
func NewTable() *Table { return new(Table) }

// hashNode mixes a node's identifying parts (FNV-1a over the scalars and
// the name, finished with a multiply-xorshift so both ends of the word
// are usable: the top bits pick the shard, the bottom bits the slot).
func hashNode(kind Kind, num int64, name string, pred ir.Pred, base, a, b *Expr) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(kind)) * prime
	h = (h ^ uint64(num)) * prime
	h = (h ^ uint64(pred)) * prime
	h = (h ^ idOf(base)) * prime
	h = (h ^ idOf(a)) * prime
	h = (h ^ idOf(b)) * prime
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

func idOf(e *Expr) uint64 {
	if e == nil {
		return 0
	}
	return e.id
}

// find returns the node with the given parts, or nil.
func (s *shard) find(h uint64, kind Kind, num int64, name string, base *Expr, pred ir.Pred, a, b *Expr) *Expr {
	if s.index == nil {
		return nil
	}
	mask := uint64(len(s.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.index[i]
		if e == nil {
			return nil
		}
		if e.Kind == kind && e.Int == num && e.Pred == pred && e.Base == base && e.A == a && e.B == b && e.Name == name {
			return e
		}
	}
}

// insert adds e, whose hash is h, to the index, growing it first when it
// is three quarters full.
func (s *shard) insert(h uint64, e *Expr) {
	if 4*(s.n+1) > 3*len(s.index) {
		old := s.index
		s.index = make([]*Expr, max(2*len(old), indexMin))
		for _, o := range old {
			if o != nil {
				s.place(hashNode(o.Kind, o.Int, o.Name, o.Pred, o.Base, o.A, o.B), o)
			}
		}
	}
	s.place(h, e)
	s.n++
}

func (s *shard) place(h uint64, e *Expr) {
	mask := uint64(len(s.index) - 1)
	i := h & mask
	for s.index[i] != nil {
		i = (i + 1) & mask
	}
	s.index[i] = e
}

// newNode carves a zeroed node from the slab.
func (t *Table) newNode() *Expr {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]Expr, 0, min(max(2*cap(t.slab), slabMin), slabMax))
	}
	t.slab = t.slab[:len(t.slab)+1]
	return &t.slab[len(t.slab)-1]
}

// reserve makes room for n more arena bytes and returns the offset the
// next append lands at. Appends within the reservation never move the
// chunk, so strings taken from it stay valid.
func (t *Table) reserve(n int) int {
	if cap(t.arena)-len(t.arena) < n {
		t.arena = make([]byte, 0, max(min(max(2*cap(t.arena), arenaMin), arenaMax), n))
	}
	return len(t.arena)
}

// since returns the arena bytes appended from offset start as a string.
func (t *Table) since(start int) string {
	return unsafe.String(&t.arena[start], len(t.arena)-start)
}

// setKey writes e's canonical key into the arena and points e.Name into
// it, so a node keeps no caller memory alive (names may be views of a
// source file, or of a reused buffer in FreshBytes).
func (t *Table) setKey(e *Expr, name string) {
	switch e.Kind {
	case KConst:
		start := t.reserve(20)
		t.arena = strconv.AppendInt(t.arena, e.Int, 10)
		e.key = t.since(start)
	case KNull:
		e.key = "null"
	case KRet:
		e.key = "[0]"
	case KArg:
		start := t.reserve(len(name) + 2)
		t.arena = append(append(append(t.arena, '['), name...), ']')
		e.key = t.since(start)
		e.Name = e.key[1 : 1+len(name)]
	case KLocal:
		if name == "" {
			return
		}
		start := t.reserve(len(name))
		t.arena = append(t.arena, name...)
		e.key = t.since(start)
		e.Name = e.key
	case KFresh:
		start := t.reserve(len(name) + 1)
		t.arena = append(append(t.arena, '$'), name...)
		e.key = t.since(start)
		e.Name = e.key[1:]
	case KField:
		bk := e.Base.key
		start := t.reserve(len(bk) + 1 + len(name))
		t.arena = append(append(append(t.arena, bk...), '.'), name...)
		e.key = t.since(start)
		e.Name = e.key[len(bk)+1:]
	case KCond:
		ak, pk, bk := e.A.key, e.Pred.String(), e.B.key
		start := t.reserve(len(ak) + len(pk) + len(bk) + 4)
		t.arena = append(t.arena, '(')
		t.arena = append(t.arena, ak...)
		t.arena = append(t.arena, ' ')
		t.arena = append(t.arena, pk...)
		t.arena = append(t.arena, ' ')
		t.arena = append(t.arena, bk...)
		t.arena = append(t.arena, ')')
		e.key = t.since(start)
	}
}

// shardOf returns the shard a hash selects.
func (t *Table) shardOf(h uint64) *shard { return &t.shards[h>>(64-shardBits)] }

// intern builds (or retrieves) the node for the given parts. Children must
// already belong to t; in -race builds a foreign child panics.
func (t *Table) intern(kind Kind, num int64, name string, base *Expr, pred ir.Pred, a, b *Expr) *Expr {
	if racebuild.Enabled {
		t.mustOwn(base)
		t.mustOwn(a)
		t.mustOwn(b)
	}
	h := hashNode(kind, num, name, pred, base, a, b)
	s := t.shardOf(h)
	s.mu.Lock()
	if e := s.find(h, kind, num, name, base, pred, a, b); e != nil {
		s.mu.Unlock()
		return e
	}
	t.mem.Lock()
	e := t.newNode()
	e.Kind, e.Int, e.Base, e.Pred, e.A, e.B = kind, num, base, pred, a, b
	t.setKey(e, name)
	t.mem.Unlock()
	e.initFlags()
	e.id = nextID.Add(1)
	s.insert(h, e)
	s.mu.Unlock()
	return e
}

// Owns reports whether t built e.
func (t *Table) Owns(e *Expr) bool {
	h := hashNode(e.Kind, e.Int, e.Name, e.Pred, e.Base, e.A, e.B)
	s := t.shardOf(h)
	s.mu.Lock()
	f := s.find(h, e.Kind, e.Int, e.Name, e.Base, e.Pred, e.A, e.B)
	s.mu.Unlock()
	return f == e
}

func (t *Table) mustOwn(e *Expr) {
	if e != nil && !t.Owns(e) {
		panic(fmt.Sprintf("sym: child %s belongs to another table", e.Key()))
	}
}

// Import returns the node of t structurally equal to e: e itself when t
// built it, otherwise e rebuilt bottom-up in t. nil imports as nil.
func (t *Table) Import(e *Expr) *Expr {
	if e == nil || t.Owns(e) {
		return e
	}
	return t.rebuild(e)
}

// rebuild interns e's structure in t as it stands: e was built by a
// constructor, so it is already canonical and needs no folding.
func (t *Table) rebuild(e *Expr) *Expr {
	switch e.Kind {
	case KField:
		return t.intern(KField, 0, e.Name, t.rebuild(e.Base), 0, nil, nil)
	case KCond:
		return t.intern(KCond, 0, "", nil, e.Pred, t.rebuild(e.A), t.rebuild(e.B))
	}
	return t.intern(e.Kind, e.Int, e.Name, nil, 0, nil, nil)
}

// LoadImport returns what StoreImport recorded for key, an object another
// table built (summary.Entry.InstantiateInto keys its imported entries by
// the original).
func (t *Table) LoadImport(key any) (any, bool) {
	t.importMu.Lock()
	v, ok := t.imports[key]
	t.importMu.Unlock()
	return v, ok
}

// StoreImport records v as key's import unless one is recorded already,
// and returns the recorded one, so concurrent importers agree.
func (t *Table) StoreImport(key, v any) any {
	t.importMu.Lock()
	defer t.importMu.Unlock()
	if got, ok := t.imports[key]; ok {
		return got
	}
	if t.imports == nil {
		t.imports = make(map[any]any)
	}
	t.imports[key] = v
	return v
}

// FreshBytes returns t.Fresh(string(name)) without allocating: the name is
// copied into the arena only when the symbol is new.
func (t *Table) FreshBytes(name []byte) *Expr {
	return t.intern(KFresh, 0, unsafe.String(unsafe.SliceData(name), len(name)), nil, 0, nil, nil)
}
