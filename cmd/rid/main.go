// Command rid analyzes mini-C sources for reference count bugs using
// inconsistent path pair checking.
//
// Usage:
//
//	rid [flags] file.c [file2.c ...]
//	rid [flags] -dir path/to/tree
//	rid [flags] -separate file.c [file2.c ...]
//	rid explain [flags] [-fn F] [-html out.html] file.c [file2.c ...]
//	rid serve [flags] [-addr host:port] [-dir corpus]
//	rid storeserve [-addr host:port] -cache-dir dir
//
// rid, rid explain and rid serve share one set of analysis flags (-spec,
// -spec-pack, -spec-file, -workers, -max-paths, -max-subcases,
// -cat2-conds, -func-timeout, -solver-max-constraints,
// -solver-max-splits), declared once by bindAnalysisFlags; rid and rid
// serve also share -cache-dir and -cache-url. -separate runs the §5.3
// separate-compilation mode through the same rid facade and output path.
//
// The explain subcommand re-runs the analysis with provenance capture on
// and prints, per bug, the complete derivation: both CFG paths with
// block-level source positions, the entry constraints before and after
// the projection of locals, every callee summary entry applied, the
// deciding solver query, and the witness-replay verdict
// (confirmed-by-replay / replay-diverged / not-replayable). With -html
// it also writes a self-contained evidence page embedding a Graphviz
// overlay of the two paths.
//
// The serve subcommand runs the analysis as a long-lived daemon: parsed
// IR for a resident corpus, the expression interner, the solver cache,
// and the persistent summary store stay hot across requests. It serves
// POST /v1/analyze, GET /v1/explain/{fn}, GET /v1/summary/{digest},
// GET /healthz and /debug/... with admission control (bounded in-flight
// analyses, 429 + Retry-After beyond the queue) and per-request
// deadlines; see the README's "rid serve" section. The repository
// benchmark (bench/) measures it under load.
//
// Flags select the predefined API specifications (-spec linux-dpm or
// -spec python-c, plus -spec-file for custom DSL files), tune the path and
// sub-case budgets, and control output verbosity. Long runs can be
// bounded: -deadline caps the whole run, -func-timeout caps any single
// function, and both degrade gracefully — partial results are printed and
// -diag lists exactly what was skipped or truncated. Interrupting with
// ^C likewise cancels the run and prints what was found so far.
//
// Repeated runs over a mostly-unchanged tree can reuse results:
// -cache-dir names a persistent summary store, and warm runs skip every
// function whose content digest (its own IR plus its callees', see
// internal/store) is unchanged, with byte-identical output.
//
// The storeserve subcommand exposes one such store directory over HTTP
// as a fleet-shared warm cache (internal/store/remote). Any rid,
// ridbench, or `rid serve` process pointed at it with -cache-url fetches
// entries it is missing and ships back what it computes; a dead or
// misbehaving store server only costs warmth — runs degrade to the local
// tier with a cache-remote diagnostic, never hang, and never change
// their answers.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/store/remote"
	"repro/rid"
)

// exitCode carries the process exit status through panic/recover so that
// every deferred cleanup — the buffered -trace flush above all — runs
// before the process dies. A bare os.Exit would skip them on exactly the
// degraded runs (deadline hit, bugs found) where a truncated trace file
// hurts the most.
type exitCode int

// exit terminates with the given status after unwinding through every
// pending defer. All exit paths below the top of cliMain use it (or
// fatalf) instead of os.Exit.
func exit(code int) { panic(exitCode(code)) }

func main() { os.Exit(cliMain()) }

func cliMain() (code int) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "explain":
			runExplain(os.Args[2:])
			return 0
		case "serve":
			runServe(os.Args[2:])
			return 0
		case "storeserve":
			runStoreServe(os.Args[2:])
			return 0
		}
	}
	af := bindAnalysisFlags(flag.CommandLine)
	bindCacheFlags(flag.CommandLine, &af.opts)
	var (
		dir      = flag.String("dir", "", "analyze every *.c file under this directory")
		deadline = flag.Duration("deadline", 0, "overall run deadline (0 = none); partial results are printed")
		verbose  = flag.Bool("v", false, "print full two-entry evidence for each bug")
		stats    = flag.Bool("stats", false, "print classification and analysis statistics")
		diag     = flag.Bool("diag", false, "print degradation diagnostics (truncations, timeouts, panics)")
		separate = flag.Bool("separate", false, "analyze the file arguments separately with a shared summary DB (§5.3)")
		saveSums = flag.String("save-summaries", "", "write the computed summary database to this JSON file")
		dotFn    = flag.String("dot", "", "print the named function's CFG in Graphviz dot syntax and exit")
		format   = flag.String("format", "text", "report format: text, json or sarif")
		suppress = flag.String("suppress", "", "comma-separated function names whose reports are discarded")
		trace    = flag.String("trace", "", "write a JSONL span log of every pipeline phase to this file")
		metrics  = flag.Bool("metrics", false, "print the metrics registry (counters and phase histograms) after the run")
		pprofSrv = flag.String("pprof", "", "serve /debug/pprof/ and /debug/vars on this address (e.g. localhost:6060) for the duration of the run")
	)
	flag.Parse()

	if af.opts.CacheURL != "" && af.opts.CacheDir == "" {
		// The fleet store is a warm tier behind the local one, not a
		// replacement: without a local directory there is nowhere to write
		// through to, and a network blip would mean re-analyzing work this
		// very run already did.
		fatalf("-cache-url requires -cache-dir (the fleet store layers behind a local store)")
	}
	if *separate && (*dir != "" || *dotFn != "") {
		fatalf("-separate takes explicit file arguments and combines with neither -dir nor -dot")
	}

	// ^C cancels the analysis; the run returns promptly with partial
	// results instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	opts, specs := af.resolve()
	opts.QueryTiming = *metrics
	if traceW := openTrace(*trace); traceW != nil {
		defer traceW.close()
		opts.TraceWriter = traceW.buf
	}
	if *suppress != "" {
		opts.Suppress = strings.Split(*suppress, ",")
	}
	a := rid.New(specs)
	a.SetOptions(opts)

	if *pprofSrv != "" {
		stop, addr, err := a.ServeDebug(*pprofSrv)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rid: serving /debug/pprof/ and /debug/vars on http://%s\n", addr)
		defer stop() //nolint:errcheck
	}

	var res *rid.Result
	var err error
	if *separate {
		res, err = a.RunSeparate(ctx, readFiles(flag.Args()))
	} else {
		loadSources(a, *dir, flag.Args())
		if *dotFn != "" {
			dot := a.FunctionCFG(*dotFn)
			if dot == "" {
				fatalf("function %q not defined", *dotFn)
			}
			fmt.Print(dot)
			return 0
		}
		res, err = a.RunContext(ctx)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if err := res.WriteReports(os.Stdout, *format, *verbose); err != nil {
		fatalf("%v", err)
	}
	if *diag {
		if err := res.WriteDiagnostics(os.Stdout, *format); err != nil {
			fatalf("%v", err)
		}
	}
	if *stats {
		fmt.Printf("functions: %d total, %d analyzed, %d paths\n",
			res.FuncsTotal, res.FuncsAnalyzed, res.PathsEnumerated)
		c := res.Categories
		fmt.Printf("categories: refcount=%d affecting(analyzed)=%d affecting(skipped)=%d other=%d\n",
			c.RefcountChanging, c.AffectingAnalyzed, c.AffectingUnanalyzed, c.Other)
		if res.Degraded() {
			fmt.Printf("degraded: %d truncated, %d timed out, %d panicked, %d diagnostics\n",
				res.FuncsTruncated, res.FuncsTimedOut, res.FuncsPanicked, len(res.Diagnostics))
		}
	}
	if *metrics {
		if err := res.WriteMetrics(os.Stdout, *format); err != nil {
			fatalf("%v", err)
		}
	}
	if *saveSums != "" {
		if err := writeFile(*saveSums, res.WriteSummaries); err != nil {
			fatalf("%v", err)
		}
	}
	return exitStatus(ctx, len(res.Bugs))
}

// exitStatus maps a finished run onto the process exit code: 3 when the
// run was canceled (partial results were printed), 1 when bugs were
// reported, 0 otherwise.
func exitStatus(ctx context.Context, bugs int) int {
	if ctx.Err() != nil {
		// Partial results were printed; make the truncation unmissable.
		fmt.Fprintf(os.Stderr, "rid: run canceled (%v); results are partial\n", ctx.Err())
		return 3
	}
	if bugs > 0 {
		return 1
	}
	return 0
}

// analysisFlags are the analysis flags rid, rid serve and rid explain
// share: spec selection and the budgets of rid.Options. The flag set
// writes straight into opts; resolve finishes the job after parsing.
type analysisFlags struct {
	opts                      rid.Options
	spec, specPacks, specFile string
}

// bindAnalysisFlags declares the shared analysis flags on fs, once for
// every subcommand, so their names, defaults and help texts cannot drift
// apart.
func bindAnalysisFlags(fs *flag.FlagSet) *analysisFlags {
	f := &analysisFlags{}
	fs.StringVar(&f.spec, "spec", "linux-dpm", "base API specs: a built-in pack ("+strings.Join(rid.SpecPackNames(), ", ")+") or a spec-DSL file path")
	fs.StringVar(&f.specPacks, "spec-pack", "", "comma-separated built-in packs merged into -spec (conflicting API definitions are rejected)")
	fs.StringVar(&f.specFile, "spec-file", "", "additional summary-DSL file merged into -spec (conflicting API definitions are rejected)")
	fs.IntVar(&f.opts.Workers, "workers", 1, "scheduler workers per analysis (negative = all cores)")
	fs.IntVar(&f.opts.MaxPaths, "max-paths", 100, "maximum paths enumerated per function")
	fs.IntVar(&f.opts.MaxSubcases, "max-subcases", 10, "maximum summary entries per path")
	fs.IntVar(&f.opts.MaxCat2Conds, "cat2-conds", 3, "category-2 complexity gate (conditional branches)")
	fs.DurationVar(&f.opts.FuncTimeout, "func-timeout", 0, "per-function wall-clock budget (0 = none)")
	fs.IntVar(&f.opts.SolverMaxConstraints, "solver-max-constraints", 0, "solver give-up threshold in inequalities per query (0 = default)")
	fs.IntVar(&f.opts.SolverMaxSplits, "solver-max-splits", 0, "solver disequality case-split budget per query (0 = default)")
	return f
}

// resolve returns the parsed options and the specs they select. -spec
// and -spec-file are read from disk here, once, so no later run (or `rid
// serve` request) re-reads a spec file.
func (f *analysisFlags) resolve() (rid.Options, rid.Specs) {
	f.opts.SpecPacks = splitList(f.specPacks)
	return f.opts, loadSpecs(f.spec, f.specFile)
}

// bindCacheFlags declares the summary-store flags on fs, writing into o.
// rid and rid serve take them; rid explain does not, because provenance
// runs always re-derive.
func bindCacheFlags(fs *flag.FlagSet, o *rid.Options) {
	fs.StringVar(&o.CacheDir, "cache-dir", "", "persistent summary store directory: warm runs skip unchanged functions (see README)")
	fs.StringVar(&o.CacheURL, "cache-url", "", "fleet summary store URL (a rid storeserve) layered behind -cache-dir as a shared warm tier")
}

// loadSources adds -dir and the file arguments to a, exiting 2 when
// nothing loads.
func loadSources(a *rid.Analyzer, dir string, files []string) {
	if dir != "" {
		if err := a.AddDir(dir); err != nil {
			fatalf("%v", err)
		}
	}
	for _, f := range files {
		if err := a.AddFile(f); err != nil {
			fatalf("%v", err)
		}
	}
	if a.NumFunctions() == 0 {
		fatalf("no functions to analyze (pass files or -dir)")
	}
}

// readFiles reads the -separate file arguments into the name → source
// map RunSeparate takes.
func readFiles(paths []string) map[string]string {
	files := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fatalf("%v", err)
		}
		files[p] = string(data)
	}
	if len(files) == 0 {
		fatalf("-separate needs explicit file arguments")
	}
	return files
}

// runServe implements `rid serve`: the long-lived analysis daemon. It
// blocks until interrupted, then shuts down gracefully — in-flight
// analyses drain (bounded) before the process exits 0.
func runServe(args []string) {
	fs := flag.NewFlagSet("rid serve", flag.ExitOnError)
	af := bindAnalysisFlags(fs)
	bindCacheFlags(fs, &af.opts)
	var (
		addr        = fs.String("addr", "localhost:8080", "listen address (port 0 picks a free one)")
		dir         = fs.String("dir", "", "resident corpus: every *.c under this directory is kept loaded; enables corpus requests and /v1/explain")
		maxInflight = fs.Int("max-inflight", 2, "concurrent analyses; more are queued")
		queueDepth  = fs.Int("queue-depth", 0, "requests waiting for a slot before 429 (0 = 4x max-inflight)")
		queueWait   = fs.Duration("queue-wait", 2*time.Second, "longest a queued request waits for a slot before 429")
		reqTimeout  = fs.Duration("request-timeout", 60*time.Second, "per-request analysis deadline (clients can only shorten it)")
		drain       = fs.Duration("drain", 15*time.Second, "how long shutdown waits for in-flight requests")
		quiet       = fs.Bool("quiet", false, "no per-request log lines")
		accessLog   = fs.String("access-log", "", "append one structured JSONL line per request to this file (- for stderr)")
		slowDir     = fs.String("slow-trace-dir", "", "tail-sampled slow-request traces: flush <dir>/<request-id>.jsonl for requests over -slow-threshold (or the sliding p99, or ending 504/panic); implies per-query timing on analyze requests")
		slowThresh  = fs.Duration("slow-threshold", 0, "fixed slow-request trigger for -slow-trace-dir (0 = p99 and failure triggers only)")
		checkProm   = fs.Bool("check-metrics", false, "render the /metrics exposition once, validate it against the text-format parser, and exit")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	// The flags are server-wide defaults; requests may override the
	// budgets and stack further packs. -cache-url alone (no -cache-dir)
	// gives lookup-only /v1/summary.
	opts, specs := af.resolve()
	cfg := serve.Config{
		Specs:          specs,
		SpecName:       af.spec,
		Options:        opts,
		CorpusDir:      *dir,
		MaxInflight:    *maxInflight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		SlowTraceDir:   *slowDir,
		SlowThreshold:  *slowThresh,
	}
	if !*quiet {
		cfg.Log = log.New(os.Stderr, "rid serve: ", log.LstdFlags)
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("access log: %v", err)
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if *checkProm {
		// Self-check mode: render the daemon's own exposition to memory
		// and round-trip it through the validating parser. No listener.
		if err := srv.CheckMetrics(); err != nil {
			fatalf("metrics self-check: %v", err)
		}
		fmt.Println("metrics exposition OK")
		return
	}
	actual, err := srv.Start(*addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "rid: serving analysis API on http://%s (spec %s, max-inflight %d, request-timeout %v)\n",
		actual, af.spec, *maxInflight, *reqTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "rid: shutting down (draining up to %v)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fatalf("shutdown: %v", err)
	}
}

// runStoreServe implements `rid storeserve`: the fleet summary store
// server. It exposes one store directory over HTTP (get/put/has-batch on
// raw validated entries, /healthz, /metrics) so any number of rid,
// ridbench, and `rid serve` processes can share warm analysis results by
// pointing -cache-url at it. Blocks until interrupted, then drains.
func runStoreServe(args []string) {
	fs := flag.NewFlagSet("rid storeserve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "localhost:8081", "listen address (port 0 picks a free one)")
		cacheDir    = fs.String("cache-dir", "", "store directory to serve (required; created if absent)")
		maxInflight = fs.Int("max-inflight", 32, "concurrent store operations; more are queued")
		queueDepth  = fs.Int("queue-depth", 0, "operations waiting for a slot before 429 (0 = 4x max-inflight)")
		queueWait   = fs.Duration("queue-wait", time.Second, "longest a queued operation waits for a slot before 429")
		failEvery   = fs.Int("fail-every", 0, "fault injection: make every Nth store operation fail with 500 (0 = off; for degradation drills)")
		drain       = fs.Duration("drain", 5*time.Second, "how long shutdown waits for in-flight operations")
		quiet       = fs.Bool("quiet", false, "no per-event log lines")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *cacheDir == "" {
		fatalf("storeserve: -cache-dir is required")
	}
	cfg := remote.ServerConfig{
		Dir:         *cacheDir,
		MaxInflight: *maxInflight,
		QueueDepth:  *queueDepth,
		QueueWait:   *queueWait,
		FailEvery:   *failEvery,
	}
	if !*quiet {
		cfg.Log = log.New(os.Stderr, "rid storeserve: ", log.LstdFlags)
	}
	srv, err := remote.NewServer(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	actual, err := srv.Start(*addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "rid: serving summary store %s on http://%s (max-inflight %d)\n",
		*cacheDir, actual, *maxInflight)
	if *failEvery > 0 {
		fmt.Fprintf(os.Stderr, "rid: storeserve fault injection on: every %dth operation fails\n", *failEvery)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "rid: storeserve shutting down (draining up to %v)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fatalf("shutdown: %v", err)
	}
}

// runExplain implements `rid explain`: the analysis with provenance
// capture and witness replay on, reported as full per-bug derivations
// (text to stdout, optionally a self-contained HTML page).
func runExplain(args []string) {
	fs := flag.NewFlagSet("rid explain", flag.ExitOnError)
	af := bindAnalysisFlags(fs)
	var (
		dir      = fs.String("dir", "", "analyze every *.c file under this directory")
		fnFilter = fs.String("fn", "", "explain only bugs in this comma-separated function list")
		htmlOut  = fs.String("html", "", "also write a self-contained HTML evidence page to this file")
		trace    = fs.String("trace", "", "with sources: write a JSONL span log to this file; without sources: read, validate and summarize an existing trace file (e.g. a serve slow-trace)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	// Trace-read mode: `rid explain -trace FILE` with no sources views an
	// existing trace instead of writing one.
	if *trace != "" && *dir == "" && len(fs.Args()) == 0 {
		if _, err := os.Stat(*trace); err == nil {
			runExplainTrace(*trace)
			return
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts, specs := af.resolve()
	opts.Provenance = true
	if traceW := openTrace(*trace); traceW != nil {
		defer traceW.close()
		opts.TraceWriter = traceW.buf
	}
	a := rid.New(specs)
	a.SetOptions(opts)
	loadSources(a, *dir, fs.Args())

	res, err := a.RunContext(ctx)
	if err != nil {
		fatalf("%v", err)
	}
	if *fnFilter != "" {
		res = res.FilterFunctions(strings.Split(*fnFilter, ",")...)
	}
	if len(res.Bugs) == 0 {
		fmt.Println("no inconsistent path pairs found")
	} else if err := res.WriteExplain(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	if *htmlOut != "" {
		if err := writeFile(*htmlOut, res.WriteExplainHTML); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "rid: wrote HTML evidence report to %s\n", *htmlOut)
	}
	exit(exitStatus(ctx, len(res.Bugs)))
}

// writeFile creates path and fills it with write, surfacing the close
// error a deferred Close would swallow.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// loadSpecs resolves the -spec/-spec-file pair shared by every
// subcommand. -spec accepts a built-in pack name (rid.SpecPackNames) or a
// path to a spec DSL file; -spec-file merges an extra DSL file on top,
// rejecting conflicting API redefinitions.
func loadSpecs(specName, specFile string) rid.Specs {
	specs, err := rid.SpecPack(specName)
	if err != nil {
		data, rerr := os.ReadFile(specName)
		if rerr != nil {
			fatalf("unknown -spec %q (want a built-in pack: %s, or a spec file path)", specName, strings.Join(rid.SpecPackNames(), ", "))
		}
		specs, err = rid.Specs{}.Parse(specName, string(data))
		if err != nil {
			fatalf("%v", err)
		}
	}
	if specFile != "" {
		data, err := os.ReadFile(specFile)
		if err != nil {
			fatalf("%v", err)
		}
		var perr error
		specs, perr = specs.Parse(specFile, string(data))
		if perr != nil {
			fatalf("%v", perr)
		}
	}
	return specs
}

// splitList parses a comma-separated flag value into its non-empty
// elements.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// traceSink is the -trace destination: the JSONL tracer writes through a
// buffer (span emission stays cheap under -workers), and close flushes it
// before the file closes. close runs via defer on EVERY exit path — the
// exit() unwinding above guarantees that even the exit-1 (bugs found) and
// exit-3 (degraded) paths leave a complete, parseable trace on disk.
type traceSink struct {
	buf *bufio.Writer
	f   *os.File
}

// openTrace creates the -trace file; nil when tracing is off.
func openTrace(path string) *traceSink {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	return &traceSink{buf: bufio.NewWriterSize(f, 64<<10), f: f}
}

// close flushes and closes the trace, surfacing write errors a plain
// deferred Close would swallow.
func (t *traceSink) close() {
	err := t.buf.Flush()
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rid: closing trace file: %v\n", err)
	}
}

// fatalf reports a usage/setup error and exits 2, unwinding through the
// pending defers (trace flush, debug-server stop) on the way out.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rid: "+format+"\n", args...)
	exit(2)
}
