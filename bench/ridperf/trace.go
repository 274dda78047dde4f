package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/frontend/ast"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/spec"
)

// span is one benchmark-side layer boundary of one op. Spans are kept in
// memory and written as JSONL when the run ends; a span's self time is its
// duration minus that of the spans naming it as parent.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

func newSpan(op int, name, parent string, t0, t1 time.Time) span {
	return span{Op: op, Name: name, Parent: parent, Start: t0.UnixMicro(), End: t1.UnixMicro()}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// intervalTracer keeps the extent of every span core.Analyze emits except
// the whole-run span and the per-query solver spans (which nest inside
// exec and ipp), so the part of an analyze call that no phase covers can be
// measured even when two workers' phases overlap.
type intervalTracer struct {
	mu sync.Mutex
	iv [][2]int64
}

func (t *intervalTracer) Span(ph obs.Phase, _ string, start time.Time, dur time.Duration) {
	if ph == obs.PhaseRun || ph == obs.PhaseSolver {
		return
	}
	s := start.UnixNano()
	t.mu.Lock()
	t.iv = append(t.iv, [2]int64{s, s + int64(dur)})
	t.mu.Unlock()
}

// covered is the total length of the union of the recorded intervals.
func (t *intervalTracer) covered() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.iv, func(i, j int) bool { return t.iv[i][0] < t.iv[j][0] })
	var total, end int64
	for _, iv := range t.iv {
		s := max(iv[0], end)
		if iv[1] > s {
			total += iv[1] - s
			end = iv[1]
		}
	}
	return time.Duration(total)
}

// layeredOut is one layer-by-layer scan.
type layeredOut struct {
	report []byte
	funcs  int
	diags  int
	layers map[string]float64
	spans  []span
}

// layered runs one scan through the layers' own entry points, the steps
// rid.Analyzer's AddSource, RunContext and WriteReports take, and times
// each call from outside. With tr set, core.Analyze also reports its phase
// spans to tr and times every solver query; without it only the frontend,
// lower, call-graph and report layers are worth reading.
func layered(files map[string]string, workers int, tr *intervalTracer, op int) (layeredOut, error) {
	names := sortedKeys(files)
	var out layeredOut
	l := map[string]float64{}
	out.layers = l

	t0 := time.Now()
	asts := make([]*ast.File, len(names))
	nbytes := 0
	for i, n := range names {
		f, err := parser.ParseFile(n, files[n])
		if err != nil {
			return out, fmt.Errorf("parse %s: %w", n, err)
		}
		asts[i] = f
		nbytes += len(files[n])
	}
	t1 := time.Now()
	prog := ir.NewProgram()
	for i, f := range asts {
		if err := lower.IntoOpts(prog, f, lower.Options{}); err != nil {
			return out, fmt.Errorf("lower %s: %w", names[i], err)
		}
	}
	if err := prog.Validate(); err != nil {
		return out, err
	}
	t2 := time.Now()
	g := callgraph.Build(prog)
	t3 := time.Now()
	reg := obs.NewRegistry()
	var tracer obs.Tracer
	if tr != nil {
		tr.iv = tr.iv[:0]
		tracer = tr
	}
	o := obs.New(tracer, reg)
	res := core.Analyze(context.Background(), prog, spec.LinuxDPM(), core.Options{Workers: workers, Obs: o})
	t4 := time.Now()
	var buf bytes.Buffer
	if err := report.Write(&buf, report.JSON, res.Reports, false); err != nil {
		return out, err
	}
	t5 := time.Now()

	instrs := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			instrs += len(b.Instrs)
		}
	}
	l["frontend.parse_ms"] = ms(t1.Sub(t0))
	l["frontend.parse_mb_per_s"] = ratio(float64(nbytes)/1e6, t1.Sub(t0).Seconds())
	l["lower.lower_ms"] = ms(t2.Sub(t1))
	l["lower.ir_instrs"] = float64(instrs)
	l["callgraph.build_ms"] = ms(t3.Sub(t2))
	l["callgraph.sccs"] = float64(len(g.SCCs()))
	l["core.analyze_ms"] = ms(t4.Sub(t3))
	l["report.render_ms"] = ms(t5.Sub(t4))
	l["report.bytes"] = float64(buf.Len())
	layersFromSnapshot(reg.Snapshot(), l)
	if tr != nil {
		l["core.unattributed_ms"] = ms(t4.Sub(t3) - tr.covered())
	}
	out.report = buf.Bytes()
	out.funcs = res.Stats.FuncsTotal
	out.diags = len(res.Diagnostics)
	out.spans = []span{
		newSpan(op, "op", "", t0, t5),
		newSpan(op, "frontend.parse", "op", t0, t1),
		newSpan(op, "lower.lower", "op", t1, t2),
		newSpan(op, "callgraph.build", "op", t2, t3),
		newSpan(op, "core.analyze", "op", t3, t4),
		newSpan(op, "report.render", "op", t4, t5),
	}
	return out, nil
}

// layersFromSnapshot reads the pipeline's own registry: phase totals (span
// durations summed, so at Workers>1 they can exceed wall time) and event
// counters, for one analyze call.
func layersFromSnapshot(s obs.Snapshot, l map[string]float64) {
	ms := func(ph obs.Phase) float64 { return float64(s.Phase(ph).Total) / 1e6 }
	c := func(m obs.Metric) float64 { return float64(s.Counter(m)) }
	l["core.classify_ms"] = ms(obs.PhaseClassify)
	l["core.funcs_analyzed"] = c(obs.MFuncsAnalyzed)
	l["cfg.enumerate_ms"] = ms(obs.PhaseEnumerate)
	l["cfg.paths"] = c(obs.MPathsEnumerated)
	l["cfg.paths_truncated"] = c(obs.MPathsTruncated)
	l["symexec.exec_ms"] = ms(obs.PhaseExec)
	l["symexec.subcases_forked"] = c(obs.MSubcasesForked)
	l["symexec.summary_entries"] = c(obs.MSummaryEntries)
	l["solver.query_ms"] = ms(obs.PhaseSolver)
	l["solver.queries"] = c(obs.MSolverQueries)
	l["solver.cache_hit_ratio"] = ratio(c(obs.MSolverCacheHits), c(obs.MSolverQueries))
	l["solver.gave_up"] = c(obs.MSolverGaveUp)
	l["ipp.check_ms"] = ms(obs.PhaseIPP)
	l["ipp.candidates"] = c(obs.MIPPCandidates)
	l["ipp.confirmed"] = c(obs.MIPPConfirmed)
	l["ipp.confirm_ratio"] = ratio(c(obs.MIPPConfirmed), c(obs.MIPPCandidates))
	l["sched.tasks"] = c(obs.MTasksExecuted)
	l["sched.steal_ratio"] = ratio(c(obs.MTasksStolen), c(obs.MTasksExecuted))
	l["sched.steal_ms"] = ms(obs.PhaseSteal)
	l["sched.queue_wait_ms"] = ms(obs.PhaseQueue)
	lookups := c(obs.MStoreHits) + c(obs.MStoreMisses)
	l["store.io_ms"] = ms(obs.PhaseCacheIO)
	l["store.hits"] = c(obs.MStoreHits)
	l["store.misses"] = c(obs.MStoreMisses)
	l["store.hit_ratio"] = ratio(c(obs.MStoreHits), lookups)
	l["store.us_per_lookup"] = ratio(ms(obs.PhaseCacheIO)*1e3, lookups)
}
