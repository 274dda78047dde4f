package sym

import (
	"strconv"
	"testing"

	"repro/internal/ir"
	"repro/internal/racebuild"
)

func TestInterningPointerIdentity(t *testing.T) {
	tb := NewTable()
	a1 := tb.Field(tb.Arg("dev"), "pm")
	a2 := tb.Field(tb.Arg("dev"), "pm")
	if a1 != a2 {
		t.Error("structurally equal field chains are not pointer-identical")
	}
	c1 := tb.Cond(a1, ir.LT, tb.Const(0))
	c2 := tb.Cond(a2, ir.LT, tb.Const(0))
	if c1 != c2 {
		t.Error("structurally equal conditions are not pointer-identical")
	}
	if c1.ID() == 0 {
		t.Error("interned node has no ID")
	}
	if c1.Key() != "([dev].pm < 0)" {
		t.Errorf("precomputed key wrong: %q", c1.Key())
	}
}

func TestInterningDistinctNodesDistinctIDs(t *testing.T) {
	tb := NewTable()
	a := tb.Arg("a")
	b := tb.Arg("b")
	if a == b || a.ID() == b.ID() {
		t.Error("distinct expressions share identity")
	}
}

func TestCacheKeyCanonical(t *testing.T) {
	tb := NewTable()
	a := tb.Cond(tb.Arg("a"), ir.GE, tb.Const(0))
	b := tb.Cond(tb.Arg("b"), ir.LT, tb.Const(5))
	s1 := True().And(tb, a).And(tb, b)
	s2 := True().And(tb, b).And(tb, a)
	if s1.CacheKey() != s2.CacheKey() {
		t.Error("CacheKey is order-sensitive")
	}
	if s1.CacheKey()[0] != 0 {
		t.Error("interned CacheKey must be NUL-prefixed (collision guard)")
	}
	s3 := True().And(tb, a)
	if s1.CacheKey() == s3.CacheKey() {
		t.Error("different sets share a CacheKey")
	}
}

func TestNewSetMatchesAndFold(t *testing.T) {
	tb := NewTable()
	conds := []*Expr{
		tb.Cond(tb.Arg("a"), ir.GE, tb.Const(0)),
		tb.Cond(tb.Arg("b"), ir.LT, tb.Const(3)),
		tb.Cond(tb.Arg("a"), ir.GE, tb.Const(0)), // duplicate
		tb.BoolConst(true),                       // dropped
		tb.Cond(tb.Arg("c"), ir.EQ, tb.Arg("d")),
	}
	bulk := NewSet(tb, conds)
	folded := True()
	for _, c := range conds {
		folded = folded.And(tb, c)
	}
	if bulk.Key() != folded.Key() {
		t.Errorf("NewSet key %q != And-fold key %q", bulk.Key(), folded.Key())
	}
	if bulk.Len() != folded.Len() {
		t.Errorf("NewSet len %d != And-fold len %d", bulk.Len(), folded.Len())
	}
	for i, c := range bulk.Conds() {
		if folded.Conds()[i] != c {
			t.Fatalf("insertion order diverges at %d", i)
		}
	}
}

// TestImportMatchesLocalBuild: a node another table built, imported, is
// the very node the importing table builds from the same parts, and an
// owned node imports as itself.
func TestImportMatchesLocalBuild(t *testing.T) {
	spec, run := NewTable(), NewTable()
	foreign := spec.Cond(spec.Field(spec.Ret(), "rc"), ir.GE, spec.Const(1))
	local := run.Cond(run.Field(run.Ret(), "rc"), ir.GE, run.Const(1))
	if run.Owns(foreign) || !spec.Owns(foreign) || !run.Owns(local) {
		t.Fatal("ownership is not decided by the building table")
	}
	if foreign == local || foreign.ID() == local.ID() {
		t.Fatal("two tables share a node or an ID")
	}
	got := run.Import(foreign)
	if got != local {
		t.Fatalf("import of %s is %p, want the run's own node %p", foreign, got, local)
	}
	if run.Import(local) != local || run.Import(nil) != nil {
		t.Fatal("an owned node or nil does not import as itself")
	}
	// Built after the import, a node is the imported one.
	if run.Field(run.Ret(), "rc") != got.A {
		t.Fatal("a child created by the import is not the table's node")
	}
}

// TestForeignChildPanics: under the race build every constructor checks
// that its children belong to its table.
func TestForeignChildPanics(t *testing.T) {
	if !racebuild.Enabled {
		t.Skip("the ownership check runs in -race builds only")
	}
	a, b := NewTable(), NewTable()
	child := a.Arg("dev")
	for name, build := range map[string]func(){
		"Field":  func() { b.Field(child, "pm") },
		"Cond":   func() { b.Cond(child, ir.LT, b.Const(0)) },
		"Folded": func() { b.Cond(a.Cond(child, ir.LT, a.Const(0)), ir.NE, b.Const(0)) },
		"AsCond": func() { child.AsCond(b) },
		"Negate": func() { child.NegateCond(b) },
		"Nested": func() { b.Field(a.Field(child, "pm"), "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a foreign child did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestFreshBytesCopiesName: FreshBytes allocates nothing for a known
// symbol, and a new symbol's name does not alias the caller's buffer.
func TestFreshBytesCopiesName(t *testing.T) {
	tb := NewTable()
	buf := []byte("r@f#3.1")
	e := tb.FreshBytes(buf)
	copy(buf, "XXXXXXX")
	if e.Name != "r@f#3.1" || e.Key() != "$r@f#3.1" {
		t.Fatalf("name %q key %q after the buffer was reused", e.Name, e.Key())
	}
	if tb.Fresh("r@f#3.1") != e {
		t.Fatal("Fresh and FreshBytes built different nodes")
	}
	name := []byte("r@f#3.1")
	if n := testing.AllocsPerRun(100, func() { tb.FreshBytes(name) }); n != 0 {
		t.Fatalf("FreshBytes of a known symbol made %.0f allocations", n)
	}
}

// TestSlabRollover builds enough nodes to fill several slab and arena
// chunks; every node keeps its key and identity afterwards.
func TestSlabRollover(t *testing.T) {
	tb := NewTable()
	n := 3 * slabMax
	nodes := make([]*Expr, n)
	for i := range nodes {
		nodes[i] = tb.Field(tb.Arg("dev"), "f"+strconv.Itoa(i))
	}
	for i, e := range nodes {
		if e.Key() != "[dev].f"+strconv.Itoa(i) || e.Name != "f"+strconv.Itoa(i) {
			t.Fatalf("node %d reads %q / %q", i, e.Key(), e.Name)
		}
		if tb.Field(tb.Arg("dev"), "f"+strconv.Itoa(i)) != e {
			t.Fatalf("node %d lost its identity", i)
		}
	}
}
