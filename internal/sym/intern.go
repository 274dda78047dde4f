// Hash-consing for symbolic expressions.
//
// Every constructor routes through intern(), which deduplicates
// structurally equal nodes in a sharded global table: two expressions
// built from the same parts are the same pointer. Because children are
// interned before their parents, a node's identity is fully described by
// its kind, scalar payload, and the interned IDs of its children — the
// table key is a small comparable struct, never a rebuilt string. Each
// interned node carries a unique nonzero ID and a canonical key string
// computed exactly once, so expression equality is pointer (or ID)
// comparison and Set/solver cache keys are O(n) ID joins instead of
// O(tree) string construction.
package sym

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// nodeKey identifies an expression up to structural equality, given that
// all children are interned: child identity is their interned ID.
type nodeKey struct {
	kind Kind
	num  int64
	name string
	pred ir.Pred
	base uint64 // Base.id for KField
	a, b uint64 // A.id, B.id for KCond
}

const internShardCount = 64

type internShard struct {
	mu sync.Mutex
	m  map[nodeKey]*Expr
}

var (
	internTab    [internShardCount]internShard
	internNextID atomic.Uint64
)

func init() {
	for i := range internTab {
		internTab[i].m = make(map[nodeKey]*Expr, 256)
	}
}

// shardOf hashes the node key (FNV-1a over its scalar fields and name)
// to spread lock traffic across shards under parallel analysis.
func shardOf(k nodeKey) *internShard {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(k.kind))
	mix(uint64(k.num))
	mix(uint64(k.pred))
	mix(k.base)
	mix(k.a)
	mix(k.b)
	for i := 0; i < len(k.name); i++ {
		mix(uint64(k.name[i]))
	}
	return &internTab[h%internShardCount]
}

// InternedCount returns the number of distinct expressions currently in
// the table (diagnostics and tests).
func InternedCount() int {
	n := 0
	for i := range internTab {
		internTab[i].mu.Lock()
		n += len(internTab[i].m)
		internTab[i].mu.Unlock()
	}
	return n
}

// freshByName memoizes Fresh symbols for byte-slice lookup, so the hot
// site-symbol path of the executor (same site, same occurrence → same
// symbol, re-derived on every path) costs no allocation after the first
// construction. Entries are interned nodes, so the memo stays consistent
// with the main table.
var freshByName = struct {
	sync.RWMutex
	m map[string]*Expr
}{m: make(map[string]*Expr)}

// FreshBytes returns Fresh(string(name)) without allocating when a fresh
// symbol of that name was built before.
func FreshBytes(name []byte) *Expr {
	freshByName.RLock()
	e := freshByName.m[string(name)] // no allocation: compiler-recognized lookup
	freshByName.RUnlock()
	if e != nil {
		return e
	}
	s := string(name)
	e = Fresh(s)
	freshByName.Lock()
	freshByName.m[s] = e
	freshByName.Unlock()
	return e
}

// intern builds (or retrieves) the node for the given parts. Children
// must already be constructed (and therefore interned).
func intern(kind Kind, num int64, name string, base *Expr, pred ir.Pred, a, b *Expr) *Expr {
	k := nodeKey{kind: kind, num: num, name: name, pred: pred}
	if base != nil {
		k.base = base.id
	}
	if a != nil {
		k.a = a.id
	}
	if b != nil {
		k.b = b.id
	}
	s := shardOf(k)
	s.mu.Lock()
	if e, ok := s.m[k]; ok {
		s.mu.Unlock()
		return e
	}
	e := &Expr{Kind: kind, Int: num, Name: name, Base: base, Pred: pred, A: a, B: b}
	e.initDerived()
	e.id = internNextID.Add(1)
	s.m[k] = e
	s.mu.Unlock()
	return e
}
