// Package sym implements the symbolic expression language of the RID paper
// (Figure 5) used by path summaries and function summaries:
//
//	e := const | e1 p e2 | [arg] | [0] | local | e.field
//
// plus fresh symbols, which model the random generator of the Figure-3
// abstraction and call results. Fresh symbols and locals share the key
// property that they are unobservable outside the function and are
// existentially projected away when a path summary is finalized.
//
// Expressions are immutable and hash-consed (see intern.go): structurally
// equal expressions are pointer-identical, Key() is a string computed once
// per distinct node, and HasLocal/HasRet are precomputed flags.
package sym

import (
	"strconv"
	"strings"

	"repro/internal/ir"
)

// Kind discriminates Expr.
type Kind int

// Expression kinds.
const (
	KConst Kind = iota // integer constant (booleans are 0/1, null is KNull)
	KNull              // the null pointer
	KArg               // [name]: a formal argument of the summarized function
	KRet               // [0]: the value returned by the summarized function
	KLocal             // a local variable never assigned before use
	KFresh             // a random value or call result, unique per creation
	KField             // Base.Name: an uninterpreted field of an object
	KCond              // A Pred B: a boolean condition
)

// Derived-property flag bits.
const (
	flagComputed = 1 << iota // initDerived ran (distinguishes zero value)
	flagHasLocal
	flagHasRet
)

// Expr is an immutable symbolic expression.
type Expr struct {
	Kind Kind
	Int  int64   // KConst
	Name string  // KArg, KLocal, KFresh, KField (field name)
	Base *Expr   // KField
	Pred ir.Pred // KCond
	A, B *Expr   // KCond

	id    uint64 // interned identity, nonzero
	key   string // canonical form, computed once at construction
	flags uint8
}

// Constructors.

// Const returns an integer constant expression.
func Const(v int64) *Expr { return intern(KConst, v, "", nil, 0, nil, nil) }

// BoolConst returns 1 for true and 0 for false, the integer encoding used
// throughout the analysis.
func BoolConst(b bool) *Expr {
	if b {
		return Const(1)
	}
	return Const(0)
}

// Null returns the null-pointer expression.
func Null() *Expr { return intern(KNull, 0, "", nil, 0, nil, nil) }

// Arg returns the expression for formal argument name, written [name].
func Arg(name string) *Expr { return intern(KArg, 0, name, nil, 0, nil, nil) }

// Ret returns [0], the summarized function's return value.
func Ret() *Expr { return intern(KRet, 0, "", nil, 0, nil, nil) }

// Local returns the expression for a local variable read before assignment.
func Local(name string) *Expr { return intern(KLocal, 0, name, nil, 0, nil, nil) }

// Fresh returns a fresh symbol; callers must ensure name uniqueness (the
// symbolic executor uses a per-path counter).
func Fresh(name string) *Expr { return intern(KFresh, 0, name, nil, 0, nil, nil) }

// Field returns base.name.
func Field(base *Expr, name string) *Expr {
	return intern(KField, 0, name, base, 0, nil, nil)
}

// Cond returns the condition a pred b, folding constants and boolean
// comparisons where possible. The result is either a KCond expression or a
// KConst 0/1 when the condition is decided structurally.
func Cond(a *Expr, pred ir.Pred, b *Expr) *Expr {
	// Null is the integer 0 throughout the analysis; canonicalize it here
	// so "x != null" and "0 != x" build the same condition (one solver
	// variable, one dedup key).
	if a.Kind == KNull {
		a = Const(0)
	}
	if b.Kind == KNull {
		b = Const(0)
	}
	// Constant folding.
	av, aok := a.constValue()
	bv, bok := b.constValue()
	if aok && bok {
		return BoolConst(pred.Eval(av, bv))
	}
	// Boolean-context folding: (C == 0) is ¬C, (C != 0) is C, and the
	// 1-valued duals, where C is itself a condition.
	if a.Kind == KCond && bok {
		switch {
		case bv == 0 && pred == ir.EQ, bv == 1 && pred == ir.NE:
			return a.NegateCond()
		case bv == 0 && pred == ir.NE, bv == 1 && pred == ir.EQ:
			return a
		}
	}
	if b.Kind == KCond && aok {
		switch {
		case av == 0 && pred == ir.EQ, av == 1 && pred == ir.NE:
			return b.NegateCond()
		case av == 0 && pred == ir.NE, av == 1 && pred == ir.EQ:
			return b
		}
	}
	// Identical terms decide reflexive predicates (interned: pointer
	// equality is structural equality).
	if a == b {
		switch pred {
		case ir.EQ, ir.LE, ir.GE:
			return BoolConst(true)
		case ir.NE, ir.LT, ir.GT:
			return BoolConst(false)
		}
	}
	// Canonical operand order for symmetric predicates keeps keys stable.
	if (pred == ir.EQ || pred == ir.NE) && a.Key() > b.Key() {
		a, b = b, a
	}
	return intern(KCond, 0, "", nil, pred, a, b)
}

// constValue returns the integer value of constants and null.
func (e *Expr) constValue() (int64, bool) {
	switch e.Kind {
	case KConst:
		return e.Int, true
	case KNull:
		return 0, true
	}
	return 0, false
}

// IsConst reports whether e is an integer constant (or null) and returns
// its value.
func (e *Expr) IsConst() (int64, bool) { return e.constValue() }

// IsTrue reports whether e is the constant 1 (a decided-true condition).
func (e *Expr) IsTrue() bool { return e.Kind == KConst && e.Int == 1 }

// IsFalse reports whether e is the constant 0 or null.
func (e *Expr) IsFalse() bool {
	v, ok := e.constValue()
	return ok && v == 0
}

// NegateCond negates a boolean expression: conditions flip their
// predicate, constants invert, and any other expression e becomes e == 0
// (the C truth-value convention).
func (e *Expr) NegateCond() *Expr {
	switch e.Kind {
	case KCond:
		return Cond(e.A, e.Pred.Negate(), e.B)
	case KConst, KNull:
		v, _ := e.constValue()
		return BoolConst(v == 0)
	}
	return Cond(e, ir.EQ, Const(0))
}

// AsCond coerces e to a boolean condition: conditions pass through and any
// other expression e becomes e != 0.
func (e *Expr) AsCond() *Expr {
	switch e.Kind {
	case KCond, KConst, KNull:
		if e.Kind != KCond {
			v, _ := e.constValue()
			return BoolConst(v != 0)
		}
		return e
	}
	return Cond(e, ir.NE, Const(0))
}

// initDerived computes the canonical key and the derived flags exactly
// once, at construction, before the node can be shared across goroutines.
func (e *Expr) initDerived() {
	e.key = e.buildKey()
	e.flags = flagComputed
	switch e.Kind {
	case KLocal, KFresh:
		e.flags |= flagHasLocal
	case KRet:
		e.flags |= flagHasRet
	case KField:
		e.flags |= e.Base.flags & (flagHasLocal | flagHasRet)
	case KCond:
		e.flags |= (e.A.flags | e.B.flags) & (flagHasLocal | flagHasRet)
	}
}

// Key returns the canonical string form of e. Two expressions are
// structurally equal iff their keys are equal.
func (e *Expr) Key() string {
	if e.key == "" {
		// Only reachable for Expr literals built outside the constructors
		// (none in this repository); constructed nodes precompute the key.
		e.key = e.buildKey()
	}
	return e.key
}

func (e *Expr) buildKey() string {
	switch e.Kind {
	case KConst:
		return strconv.FormatInt(e.Int, 10)
	case KNull:
		return "null"
	case KArg:
		return "[" + e.Name + "]"
	case KRet:
		return "[0]"
	case KLocal:
		return e.Name
	case KFresh:
		return "$" + e.Name
	case KField:
		return e.Base.Key() + "." + e.Name
	case KCond:
		ak, pk, bk := e.A.Key(), e.Pred.String(), e.B.Key()
		var b strings.Builder
		b.Grow(len(ak) + len(pk) + len(bk) + 4)
		b.WriteByte('(')
		b.WriteString(ak)
		b.WriteByte(' ')
		b.WriteString(pk)
		b.WriteByte(' ')
		b.WriteString(bk)
		b.WriteByte(')')
		return b.String()
	}
	return "?"
}

// String renders the expression in the paper's notation.
func (e *Expr) String() string { return e.Key() }

// ID returns the interned identity of e: nonzero, and stable for the
// lifetime of the process.
func (e *Expr) ID() uint64 { return e.id }

// HasLocal reports whether e mentions a local variable or fresh symbol —
// i.e. anything unobservable outside the function.
func (e *Expr) HasLocal() bool {
	if e.flags&flagComputed != 0 {
		return e.flags&flagHasLocal != 0
	}
	switch e.Kind {
	case KLocal, KFresh:
		return true
	case KField:
		return e.Base.HasLocal()
	case KCond:
		return e.A.HasLocal() || e.B.HasLocal()
	}
	return false
}

// HasRet reports whether e mentions [0].
func (e *Expr) HasRet() bool {
	if e.flags&flagComputed != 0 {
		return e.flags&flagHasRet != 0
	}
	switch e.Kind {
	case KRet:
		return true
	case KField:
		return e.Base.HasRet()
	case KCond:
		return e.A.HasRet() || e.B.HasRet()
	}
	return false
}

// Subst returns e with every maximal subexpression whose Key appears in m
// replaced by the mapped expression. The substitution is simultaneous.
// Untouched subtrees are returned as-is, and rebuilt nodes are interned,
// so instantiating a summary reuses existing subtrees instead of
// reallocating them.
func (e *Expr) Subst(m map[string]*Expr) *Expr {
	if len(m) == 0 {
		return e
	}
	if r, ok := m[e.Key()]; ok {
		return r
	}
	switch e.Kind {
	case KField:
		nb := e.Base.Subst(m)
		if nb == e.Base {
			return e
		}
		return Field(nb, e.Name)
	case KCond:
		na, nbb := e.A.Subst(m), e.B.Subst(m)
		if na == e.A && nbb == e.B {
			return e
		}
		return Cond(na, e.Pred, nbb)
	}
	return e
}

// Atoms appends to out the non-constant leaf terms of e (args, ret, locals,
// fresh symbols, and whole field chains) and returns the result. Field
// chains are treated as single uninterpreted terms.
func (e *Expr) Atoms(out []*Expr) []*Expr {
	switch e.Kind {
	case KConst, KNull:
		return out
	case KCond:
		out = e.A.Atoms(out)
		return e.B.Atoms(out)
	default:
		return append(out, e)
	}
}

// ---------------------------------------------------------------------------
// Constraint sets

// Set is a conjunction of boolean conditions. The zero value is the empty
// (true) constraint. Sets are treated as immutable: And returns a new Set.
// Alongside the insertion-order condition list, a Set maintains the same
// conditions sorted by canonical key, which makes duplicate checks a
// binary search, Key() a join of precomputed strings, and CacheKey() an
// O(n) join of interned IDs.
type Set struct {
	conds  []*Expr // insertion order
	sorted []*Expr // the same conditions, ordered by Key(), unique
}

// True returns the empty constraint.
func True() Set { return Set{} }

// NewSet returns the conjunction of conds, exactly as if And were folded
// over them: conditions are coerced via AsCond, decided-true conditions
// and duplicates are dropped (first occurrence wins).
func NewSet(conds []*Expr) Set {
	// conds and sorted are carved from one backing array: sets are
	// allocated once per path constraint rebuild, so halving the object
	// count here is measurable on large corpora. Both slices are full-cap
	// limited, and a Set is immutable after construction, so the shared
	// backing is never appended into or written again.
	n := len(conds)
	back := make([]*Expr, 2*n)
	s := Set{
		conds:  back[0:0:n],
		sorted: back[n : n : 2*n],
	}
	for _, cond := range conds {
		c := cond.AsCond()
		if c.IsTrue() {
			continue
		}
		idx, found := s.search(c)
		if found {
			continue
		}
		s.conds = append(s.conds, c)
		s.sorted = append(s.sorted, nil)
		copy(s.sorted[idx+1:], s.sorted[idx:])
		s.sorted[idx] = c
	}
	return s
}

// search locates c's key in the sorted slice, returning the insertion
// index and whether an equal condition is already present.
func (s Set) search(c *Expr) (int, bool) {
	key := c.Key()
	lo, hi := 0, len(s.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sorted[mid].Key() < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.sorted) && s.sorted[lo].Key() == key
}

// And returns s extended with cond (coerced via AsCond). Decided-true
// conditions are dropped; duplicates are dropped; a decided-false condition
// is recorded as the single constant-false condition.
func (s Set) And(cond *Expr) Set {
	c := cond.AsCond()
	if c.IsTrue() {
		return s
	}
	idx, found := s.search(c)
	if found {
		return s
	}
	ln := len(s.conds) + 1
	back := make([]*Expr, 2*ln)
	n := Set{
		conds:  back[0:0:ln],
		sorted: back[ln : ln : 2*ln],
	}
	n.conds = append(append(n.conds, s.conds...), c)
	n.sorted = append(n.sorted, s.sorted[:idx]...)
	n.sorted = append(n.sorted, c)
	n.sorted = append(n.sorted, s.sorted[idx:]...)
	return n
}

// AndSet returns the conjunction of s and o.
func (s Set) AndSet(o Set) Set {
	if len(o.conds) == 0 {
		return s
	}
	if len(s.conds) == 0 {
		return o
	}
	merged := make([]*Expr, 0, len(s.conds)+len(o.conds))
	merged = append(merged, s.conds...)
	merged = append(merged, o.conds...)
	return NewSet(merged)
}

// Conds returns the conditions in insertion order. The slice must not be
// modified.
func (s Set) Conds() []*Expr { return s.conds }

// Len returns the number of conditions.
func (s Set) Len() int { return len(s.conds) }

// HasFalse reports whether the set contains a syntactically false
// condition.
func (s Set) HasFalse() bool {
	for _, c := range s.conds {
		if c.IsFalse() {
			return true
		}
	}
	return false
}

// Subst applies an expression substitution to every condition.
func (s Set) Subst(m map[string]*Expr) Set {
	if len(m) == 0 {
		return s
	}
	// Allocate only once a condition actually changes; a substitution
	// that touches nothing (entries with argument-free constraints are
	// the common case at call sites) returns the receiver as-is.
	var subbed []*Expr
	for i, c := range s.conds {
		nc := c.Subst(m)
		if subbed == nil {
			if nc == c {
				continue
			}
			subbed = make([]*Expr, i, len(s.conds))
			copy(subbed, s.conds[:i])
		}
		subbed = append(subbed, nc)
	}
	if subbed == nil {
		return s
	}
	return NewSet(subbed)
}

// WithoutLocals returns the set with every condition that mentions a local
// or fresh symbol removed — the existential projection of §3.3.3 ("remove
// conditions on local variables"). Before projecting, equalities that pin a
// local to an observable expression are used to rewrite that local away, so
// information such as "[0] = v ∧ v ≥ 0" survives as "[0] ≥ 0".
func (s Set) WithoutLocals() Set {
	out, _ := s.ProjectLocals()
	return out
}

// ProjectLocals performs the local projection of WithoutLocals and also
// returns the accumulated substitution that pinned locals to observable
// expressions. Callers (the symbolic executor) apply the same substitution
// to refcount keys and return expressions so that, e.g., the refcount of an
// object held in a returned local becomes the refcount of [0].
func (s Set) ProjectLocals() (Set, map[string]*Expr) {
	// Fast path: nothing mentions a local, so there is nothing to project
	// and nothing to pin.
	anyLocal := false
	for _, c := range s.conds {
		if c.HasLocal() {
			anyLocal = true
			break
		}
	}
	if !anyLocal {
		return s, nil
	}
	conds := s.conds
	pins := make(map[string]*Expr)
	// Fixpoint: substitute locals that are pinned by an equality to a
	// local-free expression.
	for iter := 0; iter < 8; iter++ {
		m := make(map[string]*Expr)
		for _, c := range conds {
			if c.Kind != KCond || c.Pred != ir.EQ {
				continue
			}
			a, b := c.A, c.B
			if isProjectable(a) && !b.HasLocal() {
				if _, dup := m[a.Key()]; !dup {
					m[a.Key()] = b
				}
			} else if isProjectable(b) && !a.HasLocal() {
				if _, dup := m[b.Key()]; !dup {
					m[b.Key()] = a
				}
			}
		}
		if len(m) == 0 {
			break
		}
		// Compose: earlier pins must see this round's substitutions so a
		// single application of pins is equivalent to the whole chain.
		for k, v := range pins {
			pins[k] = v.Subst(m)
		}
		for k, v := range m {
			if _, dup := pins[k]; !dup {
				pins[k] = v
			}
		}
		subbed := make([]*Expr, len(conds))
		for i, c := range conds {
			subbed[i] = c.Subst(m)
		}
		conds = NewSet(subbed).conds
	}
	keep := make([]*Expr, 0, len(conds))
	for _, c := range conds {
		if !c.HasLocal() {
			keep = append(keep, c)
		}
	}
	return NewSet(keep), pins
}

// isProjectable reports whether e is a term whose only unobservable part is
// itself: a bare local/fresh symbol, or a field chain rooted at one.
func isProjectable(e *Expr) bool {
	switch e.Kind {
	case KLocal, KFresh:
		return true
	}
	return false
}

// Key returns a canonical string for the whole conjunction (sorted), used
// for display and as the order-insensitive identity of the set.
func (s Set) Key() string {
	switch len(s.sorted) {
	case 0:
		return ""
	case 1:
		return s.sorted[0].Key()
	}
	n := 0
	for _, c := range s.sorted {
		n += len(c.Key()) + 3
	}
	var b strings.Builder
	b.Grow(n)
	for i, c := range s.sorted {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(c.Key())
	}
	return b.String()
}

// CacheKey returns a compact canonical identity for the conjunction, used
// by the solver cache: a NUL followed by the 8-byte interned IDs of the
// conditions in canonical order.
func (s Set) CacheKey() string {
	return string(s.AppendCacheKey(nil))
}

// AppendCacheKey appends the bytes of CacheKey to b and returns the
// extended slice. Callers that reuse b across queries avoid the per-query
// string allocation; the appended bytes are identical to CacheKey().
func (s Set) AppendCacheKey(b []byte) []byte {
	b = append(b, 0)
	for _, c := range s.sorted {
		b = appendID(b, c.id)
	}
	return b
}

func appendID(b []byte, id uint64) []byte {
	return append(b,
		byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
		byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
}

// AppendMergedCacheKey appends the CacheKey of s.AndSet(o) to b without
// materializing the conjunction: the two sorted condition lists are merged
// with duplicates dropped, which is exactly the canonical order AndSet
// produces. n is the number of distinct conditions in the merge.
func AppendMergedCacheKey(b []byte, s, o Set) (out []byte, n int) {
	b = append(b, 0)
	i, j := 0, 0
	for i < len(s.sorted) && j < len(o.sorted) {
		a, bb := s.sorted[i], o.sorted[j]
		switch {
		case a == bb: // interned: pointer equality is structural equality
			b = appendID(b, a.id)
			i++
			j++
		case a.Key() < bb.Key():
			b = appendID(b, a.id)
			i++
		default:
			b = appendID(b, bb.id)
			j++
		}
		n++
	}
	for ; i < len(s.sorted); i++ {
		b = appendID(b, s.sorted[i].id)
		n++
	}
	for ; j < len(o.sorted); j++ {
		b = appendID(b, o.sorted[j].id)
		n++
	}
	return b, n
}

// String renders the conjunction in the paper's ∧ notation.
func (s Set) String() string {
	if len(s.conds) == 0 {
		return "true"
	}
	parts := make([]string, len(s.conds))
	for i, c := range s.conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, " && ")
}
