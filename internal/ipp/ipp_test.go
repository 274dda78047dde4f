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
func entry(path int, ret *sym.Expr, delta int, rc *sym.Expr, conds ...*sym.Expr) symexec.PathEntry {
	cons := sym.True()
	for _, c := range conds {
		cons = cons.And(c)
	}
	e := summary.NewEntry(cons, ret)
	if rc != nil && delta != 0 {
		e.AddChange(rc, delta)
	}
	return symexec.PathEntry{Entry: e, PathIndex: path}
}

func result(fn string, entries ...symexec.PathEntry) symexec.Result {
	f := &ir.Func{Name: fn, Params: []string{"dev"}}
	f.Body().NewBlock().Instrs = []*ir.Instr{{Op: ir.OpReturn}}
	return symexec.Result{Fn: f, Entries: entries, NumPaths: len(entries)}
}

var pm = sym.Field(sym.Arg("dev"), "pm")

func TestInconsistentPairReported(t *testing.T) {
	retZero := sym.Cond(sym.Ret(), ir.EQ, sym.Const(0))
	res := result("foo",
		entry(0, sym.Const(0), 1, pm, retZero),
		entry(1, sym.Const(0), 0, nil, retZero),
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
	res := result("f",
		entry(0, sym.Const(0), 1, pm, sym.Cond(sym.Ret(), ir.EQ, sym.Const(0))),
		entry(1, sym.Const(1), 0, nil, sym.Cond(sym.Ret(), ir.EQ, sym.Const(1))),
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
	a := sym.Arg("a")
	res := result("f",
		entry(0, nil, 1, pm, sym.Cond(a, ir.GT, sym.Const(0))),
		entry(1, nil, 0, nil, sym.Cond(a, ir.LE, sym.Const(0))),
	)
	reports, _ := Check(res, solver.New())
	if len(reports) != 0 {
		t.Fatalf("reports: %v", reports)
	}
}

func TestSameChangesNeverReported(t *testing.T) {
	res := result("f",
		entry(0, nil, 1, pm),
		entry(1, nil, 1, pm),
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
	// Three no-change entries against one +1 entry: one report, not three.
	res := result("f",
		entry(0, nil, 1, pm),
		entry(1, nil, 0, nil),
		entry(2, nil, 0, nil),
		entry(3, nil, 0, nil),
	)
	reports, _ := Check(res, solver.New())
	if len(reports) != 1 {
		t.Fatalf("reports: %d, want 1 (dedup per refcount)", len(reports))
	}
}

func TestMultipleRefcountsMultipleReports(t *testing.T) {
	rc2 := sym.Field(sym.Arg("dev"), "usage")
	e1 := entry(0, nil, 1, pm)
	e1.AddChange(rc2, -1)
	res := result("f", e1, entry(1, nil, 0, nil))
	reports, _ := Check(res, solver.New())
	if len(reports) != 2 {
		t.Fatalf("reports: %d, want 2", len(reports))
	}
}

func TestTruncatedGetsDefaultEntry(t *testing.T) {
	res := result("f", entry(0, nil, 1, pm))
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
	res := result("f")
	_, sum := Check(res, solver.New())
	if !sum.HasDefault || len(sum.Entries) != 1 {
		t.Errorf("summary: %s", sum)
	}
}

func TestLocalKeyedChangesComparedButNotExported(t *testing.T) {
	obj := sym.Field(sym.Fresh("alloc@f#0.1"), "rc")
	retNull := sym.Cond(sym.Ret(), ir.EQ, sym.Const(0))
	res := result("f",
		entry(0, sym.Null(), 1, obj, retNull),
		entry(1, sym.Null(), 0, nil, retNull),
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
	_, sum := Check(result("f"), solver.New())
	if len(sum.Params) != 1 || sum.Params[0] != "dev" {
		t.Errorf("params: %v", sum.Params)
	}
}

func TestReportRendering(t *testing.T) {
	res := result("foo",
		entry(0, nil, 1, pm),
		entry(1, nil, 0, nil),
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
