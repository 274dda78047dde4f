// Command ridbench regenerates the paper's evaluation tables and
// statistics (§6) against the synthetic corpora and prints them alongside
// the paper's own numbers.
//
//	ridbench -all            # everything
//	ridbench -table1         # function classification (Table 1)
//	ridbench -table2         # RID vs Cpychecker (Table 2)
//	ridbench -dpm            # §6.2 reports vs confirmed bugs
//	ridbench -misuse         # §6.3 pm_runtime_get census
//	ridbench -perf           # §6.5 scaling series
//	ridbench -perf -perf-json perf.json   # ...and save the series
//	ridbench -perf -cache-dir dir         # cold vs warm runs with the persistent summary store
//	ridbench -perf -workers 1,2,4,8       # worker sweep: one snapshot per setting + scaling efficiency
//	ridbench -packs          # spec packs: precision/recall on the lock/fd corpora
//	ridbench -packs -min-precision 0.9 -min-recall 1  # ...and gate on the scores
//	ridbench -show-specs     # the predefined summaries (Figure 7)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/summary"
)

// parseWorkers parses the -workers flag: a comma-separated list of worker
// counts. One value selects that setting for every experiment; several
// values turn -perf into a sweep (one snapshot per setting). Zero is
// rejected (the analyzer treats negatives as "all cores", but 0 workers is
// always a typo).
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("bad -workers value %q (want a comma list of non-zero counts, negative = all cores)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -workers list")
	}
	return out, nil
}

// parseScales parses the -perf-scales flag: a comma list of positive
// corpus scale factors for the §6.5 series.
func parseScales(s string) ([]int, error) {
	scales, err := parseWorkers(s)
	if err != nil {
		return nil, fmt.Errorf("bad -perf-scales: %v", err)
	}
	for _, n := range scales {
		if n < 0 {
			return nil, fmt.Errorf("bad -perf-scales value %d (scales must be positive)", n)
		}
	}
	return scales, nil
}

func main() {
	var (
		all         = flag.Bool("all", false, "run every experiment")
		table1      = flag.Bool("table1", false, "Table 1: function classification")
		table2      = flag.Bool("table2", false, "Table 2: RID vs Cpychecker")
		dpm         = flag.Bool("dpm", false, "§6.2: DPM bug reports vs confirmed")
		misuse      = flag.Bool("misuse", false, "§6.3: pm_runtime_get misuse census")
		perf        = flag.Bool("perf", false, "§6.5: performance scaling")
		perfJSON    = flag.String("perf-json", "", "write the -perf series to this file as JSON: one snapshot per -workers setting")
		cacheDir    = flag.String("cache-dir", "", "with -perf: measure cold vs warm runs against this persistent summary store")
		cacheURL    = flag.String("cache-url", "", "with -perf -cache-dir: layer a fleet summary store (`rid storeserve`) behind the local one")
		ablations   = flag.Bool("ablations", false, "design-decision ablations (DESIGN.md §5)")
		packs       = flag.Bool("packs", false, "spec packs: precision/recall of the lock and fd packs on their seeded corpora")
		minPrec     = flag.Float64("min-precision", 0, "with -packs: exit non-zero if any pack's precision is below this (0 = no gate)")
		minRecall   = flag.Float64("min-recall", 0, "with -packs: exit non-zero if any pack's recall is below this (0 = no gate)")
		showSpecs   = flag.Bool("show-specs", false, "print the predefined summaries (Figure 7)")
		workersFlag = flag.String("workers", "1", "scheduler workers: one count, or a comma list (e.g. 1,2,4,8) to sweep -perf across settings; any negative value = all cores")
		minScaling  = flag.Float64("min-scaling", 0, "with a -workers sweep: exit non-zero unless the largest setting's analyze-time speedup over the first is at least this (0 = no gate)")
		perfScales  = flag.String("perf-scales", "1,2,4", "corpus scale factors for the -perf series (comma list)")
		seed        = flag.Int64("seed", 317, "corpus seed")
		deadline    = flag.Duration("deadline", 0, "overall deadline for the experiment run (0 = none)")
		pprofSrv    = flag.String("pprof", "", "serve /debug/pprof/ and /debug/vars on this address for the duration of the run")
	)
	flag.Parse()

	if *cacheURL != "" && *cacheDir == "" {
		check(fmt.Errorf("-cache-url requires -cache-dir (the fleet store layers behind a local store)"))
	}

	workerList, err := parseWorkers(*workersFlag)
	check(err)
	// Non-perf experiments run at a single setting: the first in the list.
	workers := &workerList[0]
	scales, err := parseScales(*perfScales)
	check(err)

	if *pprofSrv != "" {
		stopSrv, addr, err := obs.Serve(*pprofSrv, nil)
		check(err)
		fmt.Fprintf(os.Stderr, "ridbench: serving /debug/pprof/ on http://%s\n", addr)
		defer stopSrv() //nolint:errcheck
	}

	// ^C (or -deadline) cancels the run; experiments then report partial,
	// degraded numbers instead of being killed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	if *perfJSON != "" || *minScaling > 0 {
		*perf = true
	}
	if *minScaling > 0 && len(workerList) < 2 {
		check(fmt.Errorf("-min-scaling needs a -workers sweep with at least two settings"))
	}
	if *minPrec > 0 || *minRecall > 0 {
		*packs = true
	}
	any := *table1 || *table2 || *dpm || *misuse || *perf || *showSpecs || *ablations || *packs
	if *all || !any {
		*table1, *table2, *dpm, *misuse, *perf, *ablations, *packs = true, true, true, true, true, true, true
	}

	if *showSpecs {
		printSpecs("Linux DPM", spec.LinuxDPM())
		printSpecs("Python/C", spec.PythonC())
		printSpecs("Lock pack", spec.Lock())
		printSpecs("FD pack", spec.FD())
	}
	if *table1 {
		cfg := experiments.DefaultTable1()
		cfg.Seed = *seed
		cfg.Workers = *workers
		r, err := experiments.Table1(ctx, cfg)
		check(err)
		fmt.Println(r.Format())
	}
	if *dpm {
		r, err := experiments.DPMBugs(ctx, *seed, *workers)
		check(err)
		fmt.Println(r.Format())
	}
	if *misuse {
		r, err := experiments.Misuse(ctx, *seed, *workers)
		check(err)
		fmt.Println(r.Format())
	}
	if *table2 {
		r, err := experiments.Table2(ctx, *workers)
		check(err)
		fmt.Println(r.Format())
	}
	if *perf && *cacheDir != "" && len(workerList) == 1 {
		// Cold/warm mode: each scale is analyzed twice against the store;
		// the warm run must be byte-identical and mostly store hits.
		if *perfJSON != "" {
			fmt.Fprintln(os.Stderr, "ridbench: -perf-json applies to the plain -perf series and is ignored with -cache-dir")
		}
		pts, err := experiments.PerfCached(ctx, scales, *workers, *cacheDir, *cacheURL)
		check(err)
		fmt.Println(experiments.FormatPerfCached(pts, *workers))
	} else if *perf {
		// The full §6.5 series once per worker setting; several settings
		// add a scaling-efficiency table. -perf-json saves the whole sweep.
		if *cacheDir != "" {
			fmt.Fprintln(os.Stderr, "ridbench: -cache-dir applies to a single -workers setting and is ignored in a sweep")
		}
		sweep, err := experiments.RunPerfSweep(ctx, scales, workerList)
		check(err)
		if len(workerList) > 1 {
			fmt.Println(experiments.FormatPerfSweep(sweep))
		} else {
			fmt.Println(experiments.FormatPerf(sweep.Snapshots[0].Points, *workers))
		}
		if *perfJSON != "" {
			f, err := os.Create(*perfJSON)
			check(err)
			check(experiments.WritePerfSweep(f, sweep))
			check(f.Close())
			fmt.Fprintf(os.Stderr, "ridbench: perf sweep written to %s\n", *perfJSON)
		}
		if *minScaling > 0 {
			top := workerList[len(workerList)-1]
			sp, ok := sweep.Speedup(top)
			if !ok {
				check(fmt.Errorf("scaling gate: no timing for workers=%d", top))
			}
			if sp < *minScaling {
				check(fmt.Errorf("scaling gate: workers=%d speedup %.2fx over workers=%d is below the required %.2fx",
					top, sp, workerList[0], *minScaling))
			}
			fmt.Fprintf(os.Stderr, "ridbench: scaling gate passed: workers=%d speedup %.2fx >= %.2fx\n", top, sp, *minScaling)
		}
	}
	if *ablations {
		rows, err := experiments.Ablations(ctx)
		check(err)
		fmt.Println(experiments.FormatAblations(rows))
	}
	if *packs {
		scores, err := experiments.PackEval(ctx, *seed, *workers)
		check(err)
		fmt.Println(experiments.FormatPackScores(scores))
		for _, s := range scores {
			if *minPrec > 0 && s.Precision < *minPrec {
				check(fmt.Errorf("pack gate: %s precision %.3f is below the required %.3f (spurious: %v)",
					s.Pack, s.Precision, *minPrec, s.Spurious))
			}
			if *minRecall > 0 && s.Recall < *minRecall {
				check(fmt.Errorf("pack gate: %s recall %.3f is below the required %.3f (missed: %v)",
					s.Pack, s.Recall, *minRecall, s.Missed))
			}
		}
	}
}

func printSpecs(title string, s *spec.Specs) {
	fmt.Printf("Predefined summaries: %s (Figure 7)\n", title)
	db := summary.NewDB()
	s.ApplyTo(db)
	for _, name := range db.Names() {
		fmt.Print(db.Get(name))
	}
	fmt.Println()
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "ridbench: %v\n", err)
		os.Exit(1)
	}
}
