package symexec

import (
	"context"
	"testing"

	"repro/internal/lower"
	"repro/internal/racebuild"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/sym"
)

// dirtyState fills every mutable field of a pooled state, standing in for
// a state at the end of a path.
func dirtyState() *state {
	tb := sym.NewTable()
	st := getState()
	st.conds = append(st.conds, taggedCond{cond: tb.Arg("a")}, taggedCond{cond: tb.Arg("b")})
	st.changes["rc"] = summary.Change{RC: tb.Arg("dev"), Delta: 1}
	st.vmap["x"] = tb.Arg("x")
	st.ret = tb.Arg("r")
	st.hasRet = true
	st.dead = true
	st.apps = append(st.apps, CalleeApp{})
	st.cons = sym.NewSet(tb, []*sym.Expr{tb.Arg("a")})
	st.consValid = true
	st.consScratch = append(st.consScratch, tb.Arg("a"))
	return st
}

// TestStatePoolNeverLeaksAcrossTasks is the alloc-guard for the state
// pool's reset contract: whatever a finished task left in a state, the
// next getState must observe a fully clean one — no conditions, changes,
// value bindings, return value, applied-entry log, or cached constraint
// set may survive recycling. (Whether the pool hands back the same object
// is the runtime's business; the contract is about what the receiver can
// observe.)
func TestStatePoolNeverLeaksAcrossTasks(t *testing.T) {
	putState(dirtyState())
	st := getState()
	if len(st.conds) != 0 {
		t.Errorf("recycled state carries %d conditions", len(st.conds))
	}
	if len(st.changes) != 0 {
		t.Errorf("recycled state carries %d changes", len(st.changes))
	}
	if len(st.vmap) != 0 {
		t.Errorf("recycled state carries %d value bindings", len(st.vmap))
	}
	if st.ret != nil || st.hasRet {
		t.Error("recycled state carries a return value")
	}
	if st.dead {
		t.Error("recycled state is dead")
	}
	if st.apps != nil {
		t.Error("recycled state carries applied callee entries")
	}
	if st.consValid || st.cons.Len() != 0 {
		t.Error("recycled state carries a cached constraint set")
	}
	if len(st.consScratch) != 0 {
		t.Error("recycled state carries constraint scratch")
	}
	putState(st)
}

// TestStateResetBuildContract pins the build-tagged halves of resetForPut:
// the normal build keeps the capacity of uniquely-owned containers (that
// retention is where the ~30% alloc reduction comes from), while the race
// build poisons the conds backing — a stale alias held across putState
// sees nil conditions and fails loudly — and drops every container.
func TestStateResetBuildContract(t *testing.T) {
	st := dirtyState()
	alias := st.conds
	condCap := cap(st.conds)
	st.resetForPut()
	if racebuild.Enabled {
		if st.conds != nil || st.changes != nil || st.vmap != nil || st.consScratch != nil {
			t.Error("race build must drop poisoned containers")
		}
		for i := range alias {
			if alias[i].cond != nil {
				t.Errorf("race build left cond %d unpoisoned in a stale alias", i)
			}
		}
	} else {
		if cap(st.conds) != condCap {
			t.Errorf("conds capacity not retained: %d -> %d", condCap, cap(st.conds))
		}
		if st.changes == nil || st.vmap == nil {
			t.Error("normal build must keep maps for reuse")
		}
	}
	// Both builds: apps always dropped (its backing escapes into
	// EntryProv under provenance, so it can never be recycled).
	if st.apps != nil {
		t.Error("apps not dropped on put")
	}
}

// branchySrc has 2^5 = 32 paths, enough to cycle pathRun scratch.
const branchySrc = `
int f(struct device *dev, int a, int b, int c, int d, int e) {
    int acc = 0;
    if (a > 0) { pm_runtime_get(dev); acc = 1; pm_runtime_put(dev); }
    if (b > 0) acc = do_thing(dev);
    if (c > 0) { pm_runtime_get_sync(dev); acc = 2; }
    if (d > 0) acc = 3;
    if (e > 0) pm_runtime_put(dev);
    return acc;
}
`

// TestPathRunPoolDropsJobReferences checks the task-context half of the
// pooling contract: a recycled pathRun must not pin the finished job,
// executor, or solver, and all scratch must be observably empty on reuse.
func TestPathRunPoolDropsJobReferences(t *testing.T) {
	tb := sym.NewTable()
	prog, err := lower.SourceString("t.c", branchySrc)
	if err != nil {
		t.Fatal(err)
	}
	db := summary.NewDB()
	spec.LinuxDPM().ApplyTo(db)
	slv := solver.New()
	ex := New(tb, db, slv, Config{MaxPaths: 100, MaxSubcases: 10})
	j := ex.Prepare(context.Background(), prog.Funcs["f"])

	pr := getPathRun(j, slv)
	if pr.job != j || pr.slv != slv || pr.Executor != ex {
		t.Fatal("getPathRun did not bind the task context")
	}
	if len(pr.occ) != j.numSites {
		t.Fatalf("occ sized %d, want %d", len(pr.occ), j.numSites)
	}
	// Dirty the scratch as a task would.
	pr.occ[0] = 7
	pr.finished = append(pr.finished, getState())
	pr.putBuf(append(pr.getBuf(), getState()))
	pr.occSaved = append(pr.occSaved, pr.occ...)
	pr.weight, pr.gaveUp = 3, 2
	pr.callArgs["arg0"] = tb.Arg("v")
	pr.instScratch.Ret = tb.Arg("r")
	pr.instScratch.AddChange(tb.Arg("dev"), 1)
	pr.entries = append(pr.entries, frozenEntry{Entry: summary.Entry{Ret: tb.Arg("r")}, path: 1})

	putPathRun(pr)
	if pr.Executor != nil || pr.job != nil || pr.slv != nil {
		t.Error("recycled pathRun pins executor/job/solver")
	}
	if len(pr.finished) != 0 || len(pr.outBuf) != 0 || len(pr.occSaved) != 0 {
		t.Error("recycled pathRun carries state slices")
	}
	for _, b := range pr.bufs {
		if len(b) != 0 {
			t.Error("recycled pathRun carries a non-empty state buffer")
		}
	}
	if pr.oneBuf[0] != nil {
		t.Error("recycled pathRun pins a state through oneBuf")
	}
	if len(pr.callArgs) != 0 {
		t.Error("recycled pathRun carries call arguments")
	}
	if pr.instScratch.Ret != nil || pr.instScratch.Cons.Len() != 0 || len(pr.instScratch.Changes) != 0 {
		t.Error("recycled pathRun carries instantiation scratch")
	}
	if len(pr.entries) != 0 || pr.entries[:1][0].Ret != nil {
		t.Error("recycled pathRun carries or pins finalized entries")
	}

	// A fresh acquisition against the same job must see cleared counters.
	pr2 := getPathRun(j, slv)
	if pr2.weight != 0 || pr2.gaveUp != 0 || pr2.anon != 0 {
		t.Errorf("reacquired pathRun counters weight=%d gaveUp=%d anon=%d, want 0", pr2.weight, pr2.gaveUp, pr2.anon)
	}
	for i, v := range pr2.occ {
		if v != 0 {
			t.Fatalf("occ[%d] = %d on reacquisition, want 0", i, v)
		}
	}
	putPathRun(pr2)
}
