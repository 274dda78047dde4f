package summary

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sym"
)

func cond(tb *sym.Table, a *sym.Expr, p ir.Pred, b *sym.Expr) sym.Set {
	return sym.True().And(tb, tb.Cond(a, p, b))
}

func TestAddChangeAccumulatesAndCancels(t *testing.T) {
	tb := sym.NewTable()
	e := NewEntry(sym.True(), nil)
	rc := tb.Field(tb.Arg("dev"), "pm")
	e.AddChange(rc, 1)
	e.AddChange(rc, 1)
	if e.Changes[rc.Key()].Delta != 2 {
		t.Errorf("delta: %d", e.Changes[rc.Key()].Delta)
	}
	e.AddChange(rc, -2)
	if _, ok := e.Changes[rc.Key()]; ok {
		t.Error("zero net change must be removed")
	}
}

func TestSameChangesAndDiffering(t *testing.T) {
	tb := sym.NewTable()
	rc1 := tb.Field(tb.Arg("a"), "pm")
	rc2 := tb.Field(tb.Arg("b"), "pm")
	e1 := NewEntry(sym.True(), nil)
	e1.AddChange(rc1, 1)
	e2 := NewEntry(sym.True(), nil)
	e2.AddChange(rc1, 1)
	if !e1.SameChanges(e2) {
		t.Error("identical changes reported different")
	}
	e2.AddChange(rc2, -1)
	if e1.SameChanges(e2) {
		t.Error("different changes reported same")
	}
	diff := e1.DifferingRefcounts(e2)
	if len(diff) != 1 || diff[0].Key() != rc2.Key() {
		t.Errorf("differing: %v", diff)
	}
	// Absent keys count as zero in both directions.
	diff2 := e2.DifferingRefcounts(e1)
	if len(diff2) != 1 || diff2[0].Key() != rc2.Key() {
		t.Errorf("differing (reverse): %v", diff2)
	}
}

func TestInstantiate(t *testing.T) {
	tb := sym.NewTable()
	// Summary of wrapper(d): changes [d].pm under cons [d] != null,
	// returns [0]. Instantiate d := [intf].dev, [0] := $r.
	e := NewEntry(cond(tb, tb.Arg("d"), ir.NE, tb.Null()), tb.Ret())
	e.AddChange(tb.Field(tb.Arg("d"), "pm"), 1)
	m := map[string]*sym.Expr{
		tb.Arg("d").Key(): tb.Field(tb.Arg("intf"), "dev"),
		tb.Ret().Key():    tb.Fresh("r"),
	}
	inst := e.Instantiate(tb, m)
	if _, ok := inst.Changes["[intf].dev.pm"]; !ok {
		t.Errorf("changes not instantiated: %v", inst.Changes)
	}
	if inst.Ret.Key() != "$r" {
		t.Errorf("ret: %s", inst.Ret)
	}
	if strings.Contains(inst.Cons.String(), "[d]") {
		t.Errorf("cons not instantiated: %s", inst.Cons)
	}
	// The original entry is untouched.
	if _, ok := e.Changes["[d].pm"]; !ok {
		t.Error("instantiate mutated the receiver")
	}
}

func TestInstantiateMergesCollidingKeys(t *testing.T) {
	tb := sym.NewTable()
	// changes on [a].rc and [b].rc where both instantiate to the same
	// object must merge their deltas.
	e := NewEntry(sym.True(), nil)
	e.AddChange(tb.Field(tb.Arg("a"), "rc"), 1)
	e.AddChange(tb.Field(tb.Arg("b"), "rc"), 1)
	obj := tb.Arg("o")
	m := map[string]*sym.Expr{
		tb.Arg("a").Key(): obj,
		tb.Arg("b").Key(): obj,
	}
	inst := e.Instantiate(tb, m)
	if c := inst.Changes["[o].rc"]; c.Delta != 2 {
		t.Errorf("merged delta: %d, want 2", c.Delta)
	}
}

func TestDefaultSummary(t *testing.T) {
	tb := sym.NewTable()
	s := Default(tb, "mystery")
	if !s.HasDefault || len(s.Entries) != 1 {
		t.Fatalf("default: %+v", s)
	}
	e := s.Entries[0]
	if e.Cons.Len() != 0 || len(e.Changes) != 0 || e.Ret.Kind != sym.KRet {
		t.Errorf("default entry: %s", e)
	}
	if s.ChangesRefcounts() {
		t.Error("default summary must not change refcounts")
	}
}

func TestEntryString(t *testing.T) {
	tb := sym.NewTable()
	e := NewEntry(cond(tb, tb.Ret(), ir.EQ, tb.Const(0)), tb.Const(0))
	e.AddChange(tb.Field(tb.Arg("dev"), "pm"), 1)
	got := e.String()
	for _, want := range []string{"[dev].pm:+1", "return: 0"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB()
	s := New("f")
	s.Entries = append(s.Entries, NewEntry(sym.True(), nil))
	db.Put(s)
	if !db.Has("f") || db.Get("f") != s || db.Len() != 1 {
		t.Error("put/get/has/len broken")
	}
	if db.Get("missing") != nil {
		t.Error("missing should be nil")
	}
	other := NewDB()
	o := New("g")
	other.Put(o)
	db.Merge(other)
	if db.Len() != 2 || db.Names()[0] != "f" || db.Names()[1] != "g" {
		t.Errorf("merge/names: %v", db.Names())
	}
}

func TestDBConcurrentAccess(t *testing.T) {
	db := NewDB()
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				s := New("f")
				s.Entries = append(s.Entries, NewEntry(sym.True(), nil))
				db.Put(s)
				db.Get("f")
				db.Has("g")
				db.Len()
			}
			done <- true
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tb := sym.NewTable()
	db := NewDB()
	s := New("wrapper")
	s.Params = []string{"intf"}
	s.Predefined = false
	s.HasDefault = true
	e1 := NewEntry(cond(tb, tb.Ret(), ir.LT, tb.Const(0)), tb.Ret())
	e2 := NewEntry(cond(tb, tb.Field(tb.Arg("intf"), "dev"), ir.NE, tb.Const(0)), tb.Const(0))
	e2.AddChange(tb.Field(tb.Field(tb.Arg("intf"), "dev"), "pm"), 1)
	e2.AddChange(tb.Field(tb.Fresh("o"), "rc"), -1)
	s.Entries = append(s.Entries, e1, e2)
	db.Put(s)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	if err := db2.Load(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got := db2.Get("wrapper")
	if got == nil {
		t.Fatal("summary lost")
	}
	if got.String() != s.String() {
		t.Errorf("round trip changed summary:\nbefore: %s\nafter:  %s", s, got)
	}
	if len(got.Params) != 1 || got.Params[0] != "intf" || !got.HasDefault {
		t.Errorf("metadata lost: %+v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	tb := sym.NewTable()
	db := NewDB()
	if err := db.Load(tb, strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if err := db.Load(tb, strings.NewReader(`{"summaries":[{"fn":"f","entries":[{"cons":[{"kind":"alien"}]}]}]}`)); err == nil {
		t.Error("expected unknown-kind error")
	}
}

func TestCloneIsolation(t *testing.T) {
	tb := sym.NewTable()
	e := NewEntry(sym.True(), nil)
	rc := tb.Field(tb.Arg("a"), "pm")
	e.AddChange(rc, 1)
	c := e.Clone()
	c.AddChange(rc, 5)
	if e.Changes[rc.Key()].Delta != 1 {
		t.Error("clone shares the changes map")
	}
}

// TestInstantiateImportsForeignEntry: instantiating an entry another table
// built yields expressions of the instantiating table, pointer-equal to
// the ones it builds itself, and the import is made once per table.
func TestInstantiateImportsForeignEntry(t *testing.T) {
	spec, run := sym.NewTable(), sym.NewTable()
	e := NewEntry(cond(spec, spec.Ret(), ir.NE, spec.Null()), spec.Ret())
	e.AddChange(spec.Field(spec.Arg("dev"), "pm"), 1)
	m := map[string]*sym.Expr{
		run.Arg("dev").Key(): run.Field(run.Arg("intf"), "dev"),
		run.Ret().Key():      run.Fresh("r1"),
	}
	got := e.Instantiate(run, m)
	if got.Ret != run.Fresh("r1") {
		t.Fatalf("ret %s is not the run's node", got.Ret)
	}
	if c := got.Cons.Conds()[0]; c != run.Cond(run.Fresh("r1"), ir.NE, run.Const(0)) {
		t.Fatalf("constraint %s is not the run's node", c)
	}
	want := run.Field(run.Field(run.Arg("intf"), "dev"), "pm")
	if ch, ok := got.Changes[want.Key()]; !ok || ch.RC != want || ch.Delta != 1 {
		t.Fatalf("changes %v, want %s +1 as the run's node", got.Changes, want)
	}
	imp, ok := run.LoadImport(e)
	if !ok {
		t.Fatal("the import was not memoized in the run's table")
	}
	e.Instantiate(run, m)
	if again, _ := run.LoadImport(e); again != imp {
		t.Fatal("a second instantiation imported the entry again")
	}
	if _, ok := spec.LoadImport(e); ok {
		t.Fatal("the owning table recorded an import of its own entry")
	}
	// An entry the run built needs no import.
	own := NewEntry(cond(run, run.Ret(), ir.NE, run.Null()), run.Ret())
	own.Instantiate(run, m)
	if _, ok := run.LoadImport(own); ok {
		t.Fatal("an owned entry was imported")
	}
}
