package ipp

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/solver"
	"repro/internal/summary"
	"repro/internal/sym"
	"repro/internal/symexec"
)

// entry builds a path entry with the given constraint conditions and one
// optional change.
func entry(tb *sym.Table, path int, ret *sym.Expr, delta int, rc *sym.Expr, conds ...*sym.Expr) symexec.PathEntry {
	cons := sym.True()
	for _, c := range conds {
		cons = cons.And(tb, c)
	}
	e := summary.NewEntry(cons, ret)
	if rc != nil && delta != 0 {
		e.AddChange(rc, delta)
	}
	return symexec.PathEntry{Entry: e, PathIndex: path}
}

func result(tb *sym.Table, fn string, entries ...symexec.PathEntry) symexec.Result {
	f := &ir.Func{Name: fn, Params: []string{"dev"}}
	f.Body().NewBlock().Instrs = []*ir.Instr{{Op: ir.OpReturn}}
	return symexec.Result{Fn: f, Entries: entries, NumPaths: len(entries), Syms: tb}
}

// pm is the tracked refcount [dev].pm(tb), built in tb.
func pm(tb *sym.Table) *sym.Expr { return tb.Field(tb.Arg("dev"), "pm") }

func TestInconsistentPairReported(t *testing.T) {
	tb := sym.NewTable()
	retZero := tb.Cond(tb.Ret(), ir.EQ, tb.Const(0))
	res := result(tb, "foo",
		entry(tb, 0, tb.Const(0), 1, pm(tb), retZero),
		entry(tb, 1, tb.Const(0), 0, nil, retZero),
	)
	reports, sum := Check(res, solver.New())
	if len(reports) != 1 {
		t.Fatalf("reports: %d", len(reports))
	}
	r := reports[0]
	if r.Refcount.Key() != "[dev].pm" || r.PathA != 0 || r.PathB != 1 {
		t.Errorf("report: %+v", r)
	}
	if r.DeltaA != 1 || r.DeltaB != 0 {
		t.Errorf("deltas: %d %d", r.DeltaA, r.DeltaB)
	}
	// The later entry is dropped; the summary holds the first.
	if len(sum.Entries) != 1 || len(sum.Entries[0].Changes) != 1 {
		t.Errorf("summary: %s", sum)
	}
}

func TestDistinguishableByReturnNotReported(t *testing.T) {
	tb := sym.NewTable()
	res := result(tb, "f",
		entry(tb, 0, tb.Const(0), 1, pm(tb), tb.Cond(tb.Ret(), ir.EQ, tb.Const(0))),
		entry(tb, 1, tb.Const(1), 0, nil, tb.Cond(tb.Ret(), ir.EQ, tb.Const(1))),
	)
	reports, sum := Check(res, solver.New())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
	if len(sum.Entries) != 2 {
		t.Errorf("summary entries: %d", len(sum.Entries))
	}
}

func TestDistinguishableByArgumentNotReported(t *testing.T) {
	tb := sym.NewTable()
	a := tb.Arg("a")
	res := result(tb, "f",
		entry(tb, 0, nil, 1, pm(tb), tb.Cond(a, ir.GT, tb.Const(0))),
		entry(tb, 1, nil, 0, nil, tb.Cond(a, ir.LE, tb.Const(0))),
	)
	reports, _ := Check(res, solver.New())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSameChangesNeverReported(t *testing.T) {
	tb := sym.NewTable()
	res := result(tb, "f",
		entry(tb, 0, nil, 1, pm(tb)),
		entry(tb, 1, nil, 1, pm(tb)),
	)
	reports, sum := Check(res, solver.New())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
	if len(sum.Entries) != 2 {
		t.Errorf("entries: %d", len(sum.Entries))
	}
}

func TestReportDedupPerRefcount(t *testing.T) {
	tb := sym.NewTable()
	// Three no-change entries against one +1 entry: one report, not three.
	res := result(tb, "f",
		entry(tb, 0, nil, 1, pm(tb)),
		entry(tb, 1, nil, 0, nil),
		entry(tb, 2, nil, 0, nil),
		entry(tb, 3, nil, 0, nil),
	)
	reports, _ := Check(res, solver.New())
	if len(reports) != 1 {
		t.Fatalf("reports: %d, want 1 (dedup per refcount)", len(reports))
	}
}

func TestMultipleRefcountsMultipleReports(t *testing.T) {
	tb := sym.NewTable()
	rc2 := tb.Field(tb.Arg("dev"), "usage")
	e1 := entry(tb, 0, nil, 1, pm(tb))
	e1.AddChange(rc2, -1)
	res := result(tb, "f", e1, entry(tb, 1, nil, 0, nil))
	reports, _ := Check(res, solver.New())
	if len(reports) != 2 {
		t.Fatalf("reports: %d, want 2", len(reports))
	}
}

func TestTruncatedGetsDefaultEntry(t *testing.T) {
	tb := sym.NewTable()
	res := result(tb, "f", entry(tb, 0, nil, 1, pm(tb)))
	res.Truncated = true
	_, sum := Check(res, solver.New())
	if !sum.HasDefault {
		t.Fatal("truncated result must carry a default entry")
	}
	last := sum.Entries[len(sum.Entries)-1]
	if last.Cons.Len() != 0 || len(last.Changes) != 0 {
		t.Errorf("default entry: %s", last)
	}
}

func TestEmptyResultGetsDefaultEntry(t *testing.T) {
	tb := sym.NewTable()
	res := result(tb, "f")
	_, sum := Check(res, solver.New())
	if !sum.HasDefault || len(sum.Entries) != 1 {
		t.Errorf("summary: %s", sum)
	}
}

func TestLocalKeyedChangesComparedButNotExported(t *testing.T) {
	tb := sym.NewTable()
	obj := tb.Field(tb.Fresh("alloc@f#0.1"), "rc")
	retNull := tb.Cond(tb.Ret(), ir.EQ, tb.Const(0))
	res := result(tb, "f",
		entry(tb, 0, tb.Null(), 1, obj, retNull),
		entry(tb, 1, tb.Null(), 0, nil, retNull),
	)
	reports, sum := Check(res, solver.New())
	if len(reports) != 1 {
		t.Fatalf("local-keyed IPP not reported: %d", len(reports))
	}
	for _, e := range sum.Entries {
		for k := range e.Changes {
			if strings.Contains(k, "$") {
				t.Errorf("unobservable refcount exported: %s", k)
			}
		}
	}
}

func TestSummaryKeepsParams(t *testing.T) {
	tb := sym.NewTable()
	_, sum := Check(result(tb, "f"), solver.New())
	if len(sum.Params) != 1 || sum.Params[0] != "dev" {
		t.Errorf("params: %v", sum.Params)
	}
}

func TestReportRendering(t *testing.T) {
	tb := sym.NewTable()
	res := result(tb, "foo",
		entry(tb, 0, nil, 1, pm(tb)),
		entry(tb, 1, nil, 0, nil),
	)
	reports, _ := Check(res, solver.New())
	if len(reports) != 1 {
		t.Fatal("need one report")
	}
	line := reports[0].String()
	if !strings.Contains(line, "foo") || !strings.Contains(line, "[dev].pm") {
		t.Errorf("line: %s", line)
	}
	detail := reports[0].Detail()
	if !strings.Contains(detail, "path 0 entry:") || !strings.Contains(detail, "path 1 entry:") {
		t.Errorf("detail: %s", detail)
	}
	if reports[0].Key() == "" {
		t.Error("empty key")
	}
}
