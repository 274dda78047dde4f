package main

import (
	"fmt"
	"strings"

	"repro/internal/corpus/kernelgen"
	"repro/internal/experiments"
)

// workload is one traffic mix. Batch workloads run in a child ridperf
// process through the rid facade; serve workloads drive a `rid serve`
// child over HTTP. bench/README.md says why each exists.
type workload struct {
	name    string
	serve   bool
	workers int  // batch: rid.Options.Workers
	edit    bool // serve: re-send one tree with a one-function edit
	full    schedule
}

// schedule is how much one workload run measures: rounds fresh processes,
// each with warmups untimed ops, then (serve only) open requests in the
// open loop at serveRate, then ops timed ops: back to back in one batch
// caller, or the serve closed loop. The counts are fixed, so every commit
// scans the same inputs in the same order and a long-lived process builds
// up the same state, however fast it runs.
type schedule struct {
	rounds, warmups, open, ops int
}

// runSeconds is the length of a full run at the commit that added this
// benchmark; the full schedules fill it.
const runSeconds = 15

var workloads = []workload{
	{name: "batch_kernel", workers: 2, full: schedule{rounds: 3, warmups: 2, ops: 22}},
	{name: "batch_wide", workers: 1, full: schedule{rounds: 3, warmups: 2, ops: 18}},
	{name: "serve_fresh", serve: true, full: schedule{rounds: 6, warmups: 2, open: 34, ops: 37}},
	{name: "serve_edit", serve: true, edit: true, full: schedule{rounds: 6, warmups: 2, open: 34, ops: 38}},
}

// quickSchedule is every workload's -quick smoke run.
var quickSchedule = schedule{rounds: 1, warmups: 1, open: 10, ops: 4}

// corpus generates the input of one op. Op i of a run uses seed+i, so no
// cache in the program can hit on a repeated input across ops.
func (w workload) corpus(seed int64) *kernelgen.Corpus {
	switch w.name {
	case "batch_kernel":
		return kernelScale(8, seed)
	case "batch_wide":
		t := experiments.DefaultTable1()
		return kernelgen.Generate(kernelgen.Config{
			Seed: seed, Mix: kernelgen.PaperMix(),
			SimpleHelpers: t.Helpers, ComplexHelpers: t.Complex, OtherFuncs: t.Other,
		})
	}
	return kernelScale(1, seed)
}

// kernelScale is the §6.5 scaling corpus (the shape of ridbench -perf and
// rid serve's BENCH_serve.json): the paper mix times scale, plus helper
// and utility mass growing with it.
func kernelScale(scale int, seed int64) *kernelgen.Corpus {
	m := kernelgen.PaperMix()
	return kernelgen.Generate(kernelgen.Config{
		Seed: seed,
		Mix: kernelgen.Mix{
			CorrectBalanced: m.CorrectBalanced * scale, CorrectErrHandled: m.CorrectErrHandled * scale,
			CorrectWrapperUse: m.CorrectWrapperUse * scale, CorrectHeld: m.CorrectHeld * scale,
			BugGetErrReturn: m.BugGetErrReturn * scale, BugWrapperErrPath: m.BugWrapperErrPath * scale,
			BugWrapperMisuse: m.BugWrapperMisuse * scale, BugDoublePut: m.BugDoublePut * scale,
			BugIRQStyle: m.BugIRQStyle * scale, BugAsymmetricErr: m.BugAsymmetricErr * scale,
			BugLoopErrPath: m.BugLoopErrPath * scale, CorrectLoop: m.CorrectLoop * scale,
			CorrectSwitch: m.CorrectSwitch * scale, BugDeepWrapper: m.BugDeepWrapper * scale,
			FPBitmask: m.FPBitmask * scale,
		},
		SimpleHelpers: 10 * scale, ComplexHelpers: 8 * scale, OtherFuncs: 200 * scale,
	})
}

// editSite is the end of the header line of one labelled driver function
// ("int f(...) {"). A statement inserted there changes that function's IR
// and digest but no line number, so the expected report bytes stay fixed.
type editSite struct {
	file string
	off  int
}

// editSites lists the header lines of the corpus's labelled driver
// functions in file order. Driver functions are category 1, so every
// edit lands on an analyzed function.
func editSites(c *kernelgen.Corpus) []editSite {
	var sites []editSite
	for _, name := range sortedKeys(c.Files) {
		src := c.Files[name]
		off := 0
		for _, line := range strings.SplitAfter(src, "\n") {
			end := off + len(strings.TrimRight(line, "\n"))
			off += len(line)
			head := strings.TrimRight(line, "\n")
			if !strings.HasSuffix(head, "{") || strings.HasPrefix(head, " ") {
				continue
			}
			open := strings.IndexByte(head, '(')
			if open < 0 {
				continue
			}
			fields := strings.Fields(head[:open])
			if len(fields) == 0 {
				continue
			}
			if _, labelled := c.Truth[fields[len(fields)-1]]; labelled {
				sites = append(sites, editSite{file: name, off: end})
			}
		}
	}
	return sites
}

// apply returns files with a refcount-neutral local assignment, unique to
// id, inserted at the site. Only the edited file is copied.
func (s editSite) apply(files map[string]string, id int) map[string]string {
	out := make(map[string]string, len(files))
	for k, v := range files {
		out[k] = v
	}
	src := files[s.file]
	out[s.file] = src[:s.off] + fmt.Sprintf(" int ridperf_edit = %d;", id) + src[s.off:]
	return out
}
