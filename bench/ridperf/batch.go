package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/corpus/kernelgen"
	"repro/rid"
)

// warmSeedBase keeps warm-up inputs apart from the seed+i inputs of ops.
const warmSeedBase = 1 << 32

// opSample is one batch op as the child measured it.
type opSample struct {
	Warm    bool               `json:"warm,omitempty"`
	Traced  bool               `json:"traced,omitempty"`
	WallNS  int64              `json:"wall_ns"`
	Funcs   int                `json:"funcs"`
	Mallocs uint64             `json:"mallocs"`
	GCs     uint32             `json:"gcs"`
	PauseNS uint64             `json:"pause_ns"`
	AllocB  uint64             `json:"alloc_bytes"`
	Err     string             `json:"err,omitempty"`
	Layers  map[string]float64 `json:"layers,omitempty"`
}

// childReady is the child's first line: warm-up is done, and this much of
// the time since the parent started it went to generating inputs.
type childReady struct {
	GenNS int64 `json:"gen_ns"`
}

// childResult is the child's last line.
type childResult struct {
	Ops   []opSample `json:"ops"`
	RefNS []int64    `json:"ref_ns"` // reference-kernel samples, one per op
	Spans []span     `json:"spans,omitempty"`
}

// runChild is the batch process under test: warm-ups, then ops ops back
// to back (closed loop, one caller), each preceded by one reference-kernel
// sample. In a traced run every other op goes layer by layer with a tracer
// attached; the others stay on the rid facade so the run can state its own
// overhead.
func runChild(w workload, seed int64, first, warmups, ops int, trace bool) error {
	enc := json.NewEncoder(os.Stdout)
	var res childResult
	var genNS int64
	for j := 0; j < warmups; j++ {
		t := time.Now()
		c := w.corpus(seed + warmSeedBase + int64(first+j))
		genNS += int64(time.Since(t))
		s, _ := batchOp(w, c, nil, 0)
		s.Warm = true
		res.Ops = append(res.Ops, s)
	}
	if err := enc.Encode(childReady{GenNS: genNS}); err != nil {
		return err
	}
	tr := &intervalTracer{}
	for i := first; i < first+ops; i++ {
		c := w.corpus(seed + int64(i))
		var t *intervalTracer
		if trace && (i-first)%2 == 1 {
			t = tr
		}
		res.RefNS = append(res.RefNS, int64(reference()))
		s, spans := batchOp(w, c, t, i)
		res.Ops = append(res.Ops, s)
		res.Spans = append(res.Spans, spans...)
	}
	return enc.Encode(res)
}

// batchOp runs one scan of c — through the rid facade, or layer by layer
// when tr is set — and checks its report against c's ground truth. It
// starts from a collected heap, so every op runs the same GC schedule, as
// a scan in a fresh process would; allocation and GC counters are read
// outside the timed window.
func batchOp(w workload, c *kernelgen.Corpus, tr *intervalTracer, op int) (opSample, []span) {
	var m0, m1 runtime.MemStats
	var rep []byte
	var diags int
	var l layeredOut
	var err error
	s := opSample{Traced: tr != nil}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if tr != nil {
		l, err = layered(c.Files, w.workers, tr, op)
		rep, s.Funcs, diags, s.Layers = l.report, l.funcs, l.diags, l.layers
	} else {
		rep, s.Funcs, diags, err = facadeScan(c.Files, w.workers)
	}
	s.WallNS = int64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	s.Mallocs = m1.Mallocs - m0.Mallocs
	s.GCs = m1.NumGC - m0.NumGC
	s.PauseNS = m1.PauseTotalNs - m0.PauseTotalNs
	s.AllocB = m1.TotalAlloc - m0.TotalAlloc
	if err == nil {
		err = checkReport(c.Truth, rep, diags)
	}
	if err != nil {
		s.Err = err.Error()
	}
	return s, l.spans
}

// facadeScan is what a user of the rid package does to scan a tree.
func facadeScan(files map[string]string, workers int) (report []byte, funcs, diags int, err error) {
	a := rid.New(rid.LinuxDPMSpecs())
	a.SetOptions(rid.Options{Workers: workers})
	for _, n := range sortedKeys(files) {
		if err := a.AddSource(n, files[n]); err != nil {
			return nil, 0, 0, err
		}
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		return nil, 0, 0, err
	}
	var buf bytes.Buffer
	if err := res.WriteReports(&buf, "json", false); err != nil {
		return nil, 0, 0, err
	}
	return buf.Bytes(), res.FuncsTotal, len(res.Diagnostics), nil
}

// batchRound starts one child process for o.sched.ops ops from index first
// and returns what it measured. Set-up runs from starting the process until
// its warm-ups are done, less the time it spent generating their inputs.
func batchRound(o options, w workload, seed int64, first int) (*tally, error) {
	r := newTally()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-first", strconv.Itoa(first),
		"-ops", strconv.Itoa(o.sched.ops), "-warmups", strconv.Itoa(o.sched.warmups),
		"-trace="+strconv.FormatBool(o.trace))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(stdout)
	var ready childReady
	var res childResult
	if err = dec.Decode(&ready); err == nil {
		r.setups = append(r.setups, (time.Since(t0) - time.Duration(ready.GenNS)).Seconds())
		err = dec.Decode(&res)
	}
	if err != nil {
		cmd.Process.Kill() //nolint:errcheck // the decode error is the one to report
	}
	if werr := cmd.Wait(); err == nil && werr != nil {
		err = werr
	}
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	r.rss = append(r.rss, maxRSSMiB(cmd.ProcessState))
	for _, ns := range res.RefNS {
		r.refs = append(r.refs, float64(ns))
	}
	for _, s := range res.Ops {
		r.add(s.Err)
		if s.Warm || s.Err != "" {
			continue
		}
		wall := ms(time.Duration(s.WallNS))
		if s.Traced {
			r.tracedLat = append(r.tracedLat, wall)
			r.addLayers(s.Layers)
			continue
		}
		// One caller keeps the process saturated, so its completions per
		// second of op time are the batch saturated_rps.
		r.lat = append(r.lat, wall)
		r.funcs += float64(s.Funcs)
		r.busy += float64(s.WallNS) / 1e9
		r.satN++
		r.satS += float64(s.WallNS) / 1e9
		r.allocs += float64(s.Mallocs)
		r.allocOps++
		r.layers["runtime.gc_cycles"] = append(r.layers["runtime.gc_cycles"], float64(s.GCs))
		r.layers["runtime.gc_pause_ms"] = append(r.layers["runtime.gc_pause_ms"], float64(s.PauseNS)/1e6)
		r.layers["runtime.alloc_mb"] = append(r.layers["runtime.alloc_mb"], float64(s.AllocB)/(1<<20))
	}
	r.spans = append(r.spans, res.Spans...)
	return r, nil
}

// maxRSSMiB is the peak resident set of a waited-for child (VmHWM).
func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}
