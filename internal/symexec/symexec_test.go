package symexec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/lower"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/sym"
)

// summarize lowers src, installs the Linux DPM specs plus any extra DSL,
// and summarizes the named function (its callees must be predefined).
func summarize(t *testing.T, src, fn string, cfg Config) Result {
	tb := sym.NewTable()
	t.Helper()
	prog, err := lower.SourceString("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	db := summary.NewDB()
	spec.LinuxDPM().ApplyTo(db)
	spec.PythonC().ApplyTo(db)
	ex := New(tb, db, solver.New(), cfg)
	f := prog.Funcs[fn]
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	return ex.Summarize(context.Background(), f)
}

func TestStraightLineEntry(t *testing.T) {
	res := summarize(t, `
int f(struct device *dev) {
    pm_runtime_get_sync(dev);
    return 0;
}`, "f", DefaultConfig())
	if len(res.Entries) != 1 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	e := res.Entries[0]
	if c, ok := e.Changes["[dev].pm"]; !ok || c.Delta != 1 {
		t.Errorf("changes: %v", e.Changes)
	}
	if e.Ret == nil || e.Ret.Key() != "0" {
		t.Errorf("ret: %v", e.Ret)
	}
	// Constraint records [0] = 0.
	if !strings.Contains(e.Cons.String(), "[0]") {
		t.Errorf("cons: %s", e.Cons)
	}
}

func TestBranchConstraintOnArgument(t *testing.T) {
	res := summarize(t, `
int f(struct device *dev, int a) {
    if (a > 0)
        pm_runtime_get_sync(dev);
    return 0;
}`, "f", DefaultConfig())
	if len(res.Entries) != 2 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	// One entry constrained [a] > 0 with +1; the other [a] <= 0 with none.
	var withChange, without *summary.Entry
	for _, e := range res.Entries {
		if len(e.Changes) > 0 {
			withChange = e.Entry
		} else {
			without = e.Entry
		}
	}
	if withChange == nil || without == nil {
		t.Fatal("expected one changing and one unchanged entry")
	}
	if !strings.Contains(withChange.Cons.String(), "[a] > 0") {
		t.Errorf("changing cons: %s", withChange.Cons)
	}
	if !strings.Contains(without.Cons.String(), "[a] <= 0") {
		t.Errorf("unchanged cons: %s", without.Cons)
	}
}

func TestCalleeEntriesFork(t *testing.T) {
	// Py_XDECREF has two entries; the state forks per entry.
	res := summarize(t, `
void f(PyObject *o) {
    Py_XDECREF(o);
}`, "f", DefaultConfig())
	if len(res.Entries) != 2 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
}

func TestInfeasibleForkPruned(t *testing.T) {
	// assert(o != NULL) makes Py_XDECREF's null entry unsatisfiable.
	res := summarize(t, `
void f(PyObject *o) {
    assert(o != NULL);
    Py_XDECREF(o);
}`, "f", DefaultConfig())
	if len(res.Entries) != 1 {
		t.Fatalf("entries: %d (pruning failed)", len(res.Entries))
	}
	if res.Entries[0].Changes["[o].rc"].Delta != -1 {
		t.Errorf("changes: %v", res.Entries[0].Changes)
	}
}

func TestNoPruningKeepsForkUntilFinalize(t *testing.T) {
	// Even with Algorithm-1 pruning off, finalization's satisfiability
	// check drops the contradictory entry.
	cfg := Config{MaxPaths: 100, MaxSubcases: 10, NoPrune: true}
	res := summarize(t, `
void f(PyObject *o) {
    assert(o != NULL);
    Py_XDECREF(o);
}`, "f", cfg)
	if len(res.Entries) != 1 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
}

func TestReturnedFreshBecomesRetZero(t *testing.T) {
	// A returned random value is pinned to [0]: reg_read's Figure-2 shape.
	res := summarize(t, `
int f(struct device *d) {
    int ret;
    ret = random();
    if (ret >= 0)
        return ret;
    return -1;
}`, "f", DefaultConfig())
	if len(res.Entries) != 2 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	foundGE := false
	for _, e := range res.Entries {
		if strings.Contains(e.Cons.String(), "([0] >= 0)") && e.Ret.Kind == sym.KRet {
			foundGE = true
		}
	}
	if !foundGE {
		for _, e := range res.Entries {
			t.Logf("entry: %s", e)
		}
		t.Error("pinning of returned local to [0] failed")
	}
}

func TestLoopBranchConditionReplaced(t *testing.T) {
	// The loop condition is re-executed on the unrolled path; Figure 6's
	// replacement rule keeps only the final (exit) condition, so both
	// paths finalize feasibly even though i never changes symbolically in
	// a comparable way.
	res := summarize(t, `
int f(struct device *dev, int n) {
    int i = 0;
    while (i < n) {
        pm_runtime_get_sync(dev);
        pm_runtime_put(dev);
        i = step(i);
    }
    return 0;
}`, "f", DefaultConfig())
	if len(res.Entries) < 2 {
		t.Fatalf("entries: %d (unrolled path lost?)", len(res.Entries))
	}
	for _, e := range res.Entries {
		if len(e.Changes) != 0 {
			t.Errorf("balanced loop has net change: %s", e)
		}
	}
}

func TestSubcaseBudgetTruncates(t *testing.T) {
	// Each Py_XDECREF doubles the states: 2^6 = 64 > 4.
	src := `void f(PyObject *a, PyObject *b, PyObject *c, PyObject *d, PyObject *e, PyObject *g) {
    Py_XDECREF(a); Py_XDECREF(b); Py_XDECREF(c);
    Py_XDECREF(d); Py_XDECREF(e); Py_XDECREF(g);
}`
	cfg := Config{MaxPaths: 100, MaxSubcases: 4}
	res := summarize(t, src, "f", cfg)
	if !res.Truncated {
		t.Error("sub-case budget must mark truncation")
	}
	if len(res.Entries) > 4 {
		t.Errorf("entries: %d", len(res.Entries))
	}
}

func TestUnknownCalleeHavocsResult(t *testing.T) {
	res := summarize(t, `
int f(struct device *dev) {
    int v;
    v = mystery(dev);
    if (v < 0)
        return -1;
    return 0;
}`, "f", DefaultConfig())
	// Both branches feasible: the unknown callee's result is
	// unconstrained.
	if len(res.Entries) != 2 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
}

func TestSiteStableFreshNames(t *testing.T) {
	// The same allocation site must produce the same refcount key on
	// every path through it.
	res := summarize(t, `
int f(PyObject *fmt, int a) {
    PyObject *o;
    o = Py_BuildValue(fmt);
    if (o == NULL)
        return -1;
    if (a > 0)
        return -1;
    return -1;
}`, "f", DefaultConfig())
	keys := map[string]bool{}
	for _, e := range res.Entries {
		for k := range e.Changes {
			keys[k] = true
		}
	}
	if len(keys) != 1 {
		t.Errorf("allocation object has %d identities: %v", len(keys), keys)
	}
}

func TestVoidReturnEntry(t *testing.T) {
	res := summarize(t, `
void f(struct device *dev) {
    pm_runtime_get(dev);
}`, "f", DefaultConfig())
	if len(res.Entries) != 1 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	if res.Entries[0].Ret != nil {
		t.Errorf("void function returned %s", res.Entries[0].Ret)
	}
}

func TestFieldChainArguments(t *testing.T) {
	res := summarize(t, `
void f(struct usb_interface *intf) {
    pm_runtime_get_sync(&intf->dev);
}`, "f", DefaultConfig())
	if len(res.Entries) != 1 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	if _, ok := res.Entries[0].Changes["[intf].dev.pm"]; !ok {
		t.Errorf("changes: %v", res.Entries[0].Changes)
	}
}

func TestDeadBranchEliminated(t *testing.T) {
	res := summarize(t, `
int f(struct device *dev) {
    int x = 1;
    if (x > 5) {
        pm_runtime_get(dev);
        return 1;
    }
    return 0;
}`, "f", DefaultConfig())
	// The constant-false branch's path is infeasible; only one entry.
	if len(res.Entries) != 1 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	if len(res.Entries[0].Changes) != 0 {
		t.Errorf("dead get survived: %s", res.Entries[0].Entry)
	}
}

func TestPathIndexTags(t *testing.T) {
	res := summarize(t, `
int f(int a) {
    if (a > 0)
        return 1;
    return 0;
}`, "f", DefaultConfig())
	seen := map[int]bool{}
	for _, e := range res.Entries {
		seen[e.PathIndex] = true
	}
	if len(seen) != 2 {
		t.Errorf("path indices: %v", seen)
	}
}

func TestAssumeConstrains(t *testing.T) {
	res := summarize(t, `
int f(int a) {
    assert(a > 3);
    if (a > 0)
        return 1;
    return 0;
}`, "f", DefaultConfig())
	// a > 3 makes the a <= 0 path infeasible.
	if len(res.Entries) != 1 {
		t.Fatalf("entries: %d", len(res.Entries))
	}
	if res.Entries[0].Ret.Key() != "1" {
		t.Errorf("ret: %s", res.Entries[0].Ret)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxPaths != 100 || c.MaxSubcases != 10 {
		t.Errorf("defaults: %+v", c)
	}
	d := DefaultConfig()
	if d.NoPrune {
		t.Error("default config must prune")
	}
	if comparable_(d.withDefaults()) != comparable_(d) {
		t.Errorf("DefaultConfig must be the fixed point of defaulting: %+v", d.withDefaults())
	}
}

// comparable_ projects Config onto its value fields (dropping the
// OnFunction hook, which makes the struct non-comparable).
func comparable_(c Config) [4]int {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return [4]int{c.MaxPaths, c.MaxSubcases, b2i(c.NoPrune), b2i(c.KeepLocalConds)}
}

// TestConfigWithDefaultsTable drives withDefaults over every zero/nonzero
// combination of the budget fields plus the flag fields: a
// partially-populated Config must get the paper's value for each unset
// field and keep every explicitly set one — no field's default may depend
// on a sibling being set (the pre-fix bug dropped MaxSubcases and pruning
// when only one budget was given).
func TestConfigWithDefaultsTable(t *testing.T) {
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{"zero", Config{}, Config{MaxPaths: 100, MaxSubcases: 10}},
		{"paths only", Config{MaxPaths: 7}, Config{MaxPaths: 7, MaxSubcases: 10}},
		{"subcases only", Config{MaxSubcases: 3}, Config{MaxPaths: 100, MaxSubcases: 3}},
		{"both budgets", Config{MaxPaths: 7, MaxSubcases: 3}, Config{MaxPaths: 7, MaxSubcases: 3}},
		{"noprune survives", Config{NoPrune: true}, Config{MaxPaths: 100, MaxSubcases: 10, NoPrune: true}},
		{"noprune with paths", Config{MaxPaths: 7, NoPrune: true}, Config{MaxPaths: 7, MaxSubcases: 10, NoPrune: true}},
		{"keep locals survives", Config{KeepLocalConds: true}, Config{MaxPaths: 100, MaxSubcases: 10, KeepLocalConds: true}},
		{"everything set", Config{MaxPaths: 1, MaxSubcases: 2, NoPrune: true, KeepLocalConds: true},
			Config{MaxPaths: 1, MaxSubcases: 2, NoPrune: true, KeepLocalConds: true}},
	}
	for _, tc := range cases {
		got := tc.in.withDefaults()
		if comparable_(got) != comparable_(tc.want) {
			t.Errorf("%s: withDefaults(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
	// The hook must survive normalization.
	called := false
	c := Config{OnFunction: func(string) { called = true }}.withDefaults()
	c.OnFunction("f")
	if !called {
		t.Error("OnFunction hook lost by withDefaults")
	}
}
