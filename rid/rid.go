// Package rid is the public API of the RID reproduction: a static analyzer
// that finds reference-count bugs by inconsistent path pair (IPP) checking,
// after Mao et al., "RID: Finding Reference Count Bugs with Inconsistent
// Path Pair Checking" (ASPLOS 2016).
//
// An inconsistent path pair is two entry-to-exit paths of one function that
// change some reference count differently yet are indistinguishable to the
// caller at runtime — the same arguments and the same return value are
// feasible on both. Either path then implies a refcount bug. RID needs only
// the specifications of the basic refcount APIs (predefined summaries); it
// derives everything else bottom-up over the call graph.
//
// Typical use:
//
//	a := rid.New(rid.LinuxDPMSpecs())
//	if err := a.AddSource("driver.c", src); err != nil { ... }
//	result, err := a.Run()
//	for _, bug := range result.Bugs { fmt.Println(bug) }
package rid

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline/cpyrule"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ipp"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/summary"
)

// Specs is an opaque set of predefined refcount API specifications.
type Specs struct{ s *spec.Specs }

// LinuxDPMSpecs returns the built-in Linux Dynamic Power Management
// runtime-PM specifications (pm_runtime_get*/pm_runtime_put*).
func LinuxDPMSpecs() Specs { return Specs{spec.LinuxDPM()} }

// PythonCSpecs returns the built-in Python/C object refcount
// specifications (Py_INCREF/Py_DECREF, new/borrowed/stolen references).
func PythonCSpecs() Specs { return Specs{spec.PythonC()} }

// LockSpecs returns the built-in lock-imbalance spec pack (spin/mutex
// lock, unlock, and conditional-acquisition trylock variants).
func LockSpecs() Specs { return Specs{spec.Lock()} }

// FDSpecs returns the built-in fd-leak spec pack (open/dup/close plus
// ownership transfer on send).
func FDSpecs() Specs { return Specs{spec.FD()} }

// SpecPack resolves a built-in spec pack by name: "linux-dpm",
// "python-c", "lock", or "fd".
func SpecPack(name string) (Specs, error) {
	s, err := spec.Pack(name)
	if err != nil {
		return Specs{}, err
	}
	return Specs{s}, nil
}

// SpecPackNames lists the built-in spec packs in sorted order.
func SpecPackNames() []string { return spec.PackNames() }

// ParseSpecs parses additional specifications in the summary DSL (see
// package documentation for the format) and merges them into s. An API
// already present with a conflicting definition is an error, not a
// silent override.
func (s Specs) Parse(name, src string) (Specs, error) {
	extra, err := spec.Parse(name, src)
	if err != nil {
		return s, err
	}
	merged := spec.NewSpecs()
	if s.s != nil {
		merged.Merge(s.s)
	}
	if err := merged.MergeStrict(extra); err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	return Specs{merged}, nil
}

// Options tunes the analysis. The zero value reproduces the paper's
// evaluation configuration (§6.1): at most 100 paths per function, 10
// sub-cases per path, category-2 functions analyzed only when they have at
// most 3 conditional branches, one scheduler worker.
type Options struct {
	// MaxPaths bounds path enumeration per function (default 100).
	MaxPaths int
	// MaxSubcases bounds summary entries per path (default 10).
	MaxSubcases int
	// MaxCat2Conds is the §5.2 complexity gate (default 3).
	MaxCat2Conds int
	// Workers is the number of work-stealing scheduler workers (default
	// 1): extra workers take independent call-graph SCCs and steal per-path
	// tasks inside a function. <0 uses GOMAXPROCS. Reports are
	// byte-identical at any setting.
	Workers int
	// PreserveBitTests keeps "x & CONST" expressions as stable symbolic
	// terms instead of abstracting them to unknowns, eliminating the §6.4
	// bit-operation false positives (the paper's future-work extension).
	// Must be set before sources are added.
	PreserveBitTests bool
	// Suppress lists functions whose reports are discarded — the triage
	// mechanism for the abstraction-induced false positives of §6.4
	// (patterns guarded by data-structure contents the abstraction drops).
	Suppress []string
	// FuncTimeout bounds the wall-clock time spent on any single function.
	// A function that exceeds it keeps its partial summary plus the §5.2
	// default entry, a Diagnostic is recorded, and the run continues;
	// 0 means unlimited.
	FuncTimeout time.Duration
	// SolverMaxConstraints and SolverMaxSplits bound each satisfiability
	// query (0 selects the solver's defaults). A query over budget answers
	// SAT conservatively — degradation toward false positives, never a
	// hang — and is recorded in Diagnostics.
	SolverMaxConstraints int
	SolverMaxSplits      int
	// TraceWriter, when non-nil, receives one JSON object per completed
	// pipeline span (classify, path enumeration, symbolic execution, IPP
	// check, solver query), newline-delimited — the `rid -trace` format.
	// Tracing implies per-query solver timing.
	TraceWriter io.Writer
	// QueryTiming times each solver query individually (feeding the
	// "solver" phase histogram of Result.WriteMetrics) even without a
	// TraceWriter. Off by default: queries can be sub-microsecond, where
	// the clock reads themselves are measurable.
	QueryTiming bool
	// CacheDir, when non-empty, enables the persistent summary store (see
	// cmd/rid's -cache-dir flag): per-function analysis outcomes are
	// cached on disk keyed by content digests of each function's IR and
	// its callees, so a warm run re-analyzes only what changed. Results
	// are byte-identical to a cold run; corrupt or version-skewed entries
	// fall back to cold analysis with a "cache-invalid" Diagnostic.
	// Ignored when Provenance is set — explain always re-derives.
	CacheDir string
	// CacheURL, when non-empty alongside CacheDir, layers a fleet summary
	// store (`rid storeserve`, cmd/rid's -cache-url flag) behind the
	// local one as a read-through/write-behind warm tier. Remote failure
	// of any kind degrades to the local tier with a "cache-remote"
	// Diagnostic; results are never affected. Ignored without CacheDir.
	CacheURL string
	// SpecPacks names built-in spec packs ("lock", "fd", "linux-dpm",
	// "python-c") merged into the analyzer's specifications at Run time.
	// Conflicting API definitions across packs are a Run error.
	SpecPacks []string
	// Provenance records, per bug, the full derivation (Bug.Provenance,
	// Result.WriteExplain/WriteExplainHTML): both CFG paths with source
	// positions, the constraint before and after the projection of
	// locals, each callee summary entry applied, and the deciding solver
	// query — then replays the witness concretely down both paths and
	// annotates the verdict (confirmed-by-replay / replay-diverged /
	// not-replayable). Off by default; the disabled path does no extra
	// work and no extra allocations.
	Provenance bool
}

// Diagnostic is one degradation event of a run: the analysis kept going
// but gave up precision or work somewhere, and this records exactly
// where. Kind is one of "path-budget", "subcase-budget", "solver-give-up",
// "timeout", "panic", "canceled" or "cache-invalid".
type Diagnostic struct {
	Function string // empty for run-level events (cancellation)
	Kind     string
	Cause    string
}

// String renders the diagnostic as one line.
func (d Diagnostic) String() string {
	fn := d.Function
	if fn == "" {
		fn = "(run)"
	}
	return fmt.Sprintf("%s: %s: %s", fn, d.Kind, d.Cause)
}

// Bug is one reported inconsistent path pair.
type Bug struct {
	Function string
	File     string
	Line     int
	Refcount string // the tracked expression, e.g. "[dev].pm" or "[l].held"
	// Resource is the declared resource kind of the tracked expression
	// ("lock", "fd", ...); empty for refcount packs.
	Resource string
	DeltaA   int
	DeltaB   int
	Evidence string // two-entry detail in the layout of the paper's Fig. 2
	// Provenance is the bug's structured derivation record, non-nil only
	// when the run had Options.Provenance set.
	Provenance *Evidence
}

// String formats the bug as a one-line diagnostic.
func (b Bug) String() string {
	return fmt.Sprintf("%s:%d: %s: inconsistent path pair on %s (%+d vs %+d)",
		b.File, b.Line, b.Function, b.Refcount, b.DeltaA, b.DeltaB)
}

// Categories mirrors Table 1 of the paper.
type Categories struct {
	RefcountChanging    int
	AffectingAnalyzed   int
	AffectingUnanalyzed int
	Other               int
}

// Result is the outcome of a run.
type Result struct {
	Bugs       Bugs
	Categories Categories
	// FuncsAnalyzed is how many functions were summarized.
	FuncsAnalyzed int
	// FuncsTotal is how many functions were defined in the sources.
	FuncsTotal int
	// PathsEnumerated counts paths across all summarized functions.
	PathsEnumerated int
	// FuncsTruncated, FuncsTimedOut and FuncsPanicked count degraded
	// functions (budget truncation, per-function timeout, recovered
	// panic); Diagnostics has the per-function detail.
	FuncsTruncated int
	FuncsTimedOut  int
	FuncsPanicked  int
	// Diagnostics records every degradation event of the run in
	// deterministic order. Empty means the analysis was exhaustive within
	// its configured budgets.
	Diagnostics []Diagnostic

	db      *summary.DB
	prog    *ir.Program
	reports []*ipp.Report
	metrics obs.Snapshot
}

// Degraded reports whether any part of the run was degraded (truncated,
// timed out, panicked, gave up a solver query, or was canceled).
func (r *Result) Degraded() bool { return len(r.Diagnostics) > 0 }

// WriteReports renders the run's reports to w in the named format: "text"
// (one line per bug, plus Figure-2-style evidence when verbose), "json"
// (one JSON object per line) or "sarif" (a SARIF 2.1.0 log for code-review
// tooling).
func (r *Result) WriteReports(w io.Writer, format string, verbose bool) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	return report.Write(w, f, r.reports, verbose)
}

// FunctionSummary renders the derived summary of the named function in the
// paper's (cons, changes, return) entry layout — the automatically
// computed contract RID checks callers against. Empty if the function was
// not summarized.
func (r *Result) FunctionSummary(fn string) string {
	if r.db == nil {
		return ""
	}
	s := r.db.Get(fn)
	if s == nil {
		return ""
	}
	return s.String()
}

// Bugs is a sortable bug list.
type Bugs []Bug

// ByFunction returns the bugs affecting the named function.
func (bs Bugs) ByFunction(fn string) Bugs {
	var out Bugs
	for _, b := range bs {
		if b.Function == fn {
			out = append(out, b)
		}
	}
	return out
}

// Functions returns the distinct reported function names, sorted.
func (bs Bugs) Functions() []string {
	set := map[string]bool{}
	for _, b := range bs {
		set[b.Function] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Analyzer accumulates sources and runs the analysis.
type Analyzer struct {
	specs Specs
	prog  *ir.Program
	opts  Options
	reg   *obs.Registry
	// resident holds the store entries decoded by this analyzer's runs
	// over Options.CacheDir, shared with its request children.
	resident *store.Resident
	// memo holds the lowered files of the most recent AddSources, shared
	// with request children, so a re-sent tree re-lowers only the files
	// that changed.
	memo *lower.Memo
}

// New returns an analyzer with the given API specifications.
func New(specs Specs) *Analyzer {
	return &Analyzer{specs: specs, prog: ir.NewProgram(), reg: obs.NewRegistry(), resident: store.NewResident(), memo: &lower.Memo{}}
}

// SetOptions replaces the analysis options.
func (a *Analyzer) SetOptions(o Options) {
	if o.CacheDir != a.opts.CacheDir {
		// Resident entries came from the old directory; a run over the
		// new one must see that directory's hits and misses.
		a.resident = store.NewResident()
	}
	a.opts = o
}

// SetSpecs replaces the API specifications. Sources already added keep
// their lowering; only the next Run is affected.
func (a *Analyzer) SetSpecs(s Specs) { a.specs = s }

// NewRequestChild returns a fresh analyzer for one request-scoped run: it
// shares a's specifications and options but holds its own (empty)
// program, so many requests can load sources and run concurrently — the
// shape `rid serve` uses. Its options and specs may be overridden per
// request with SetOptions/SetSpecs without affecting a. It counts into
// its own child metrics registry, and every count also rolls up into a's
// long-lived one: the request's Result carries an exact per-request
// metrics delta (its registry started at zero) while the parent keeps
// process-wide totals for DebugHandler and /metrics. The rollup is
// lock-free; the only per-call cost is one extra atomic add per event.
// Children also share a's decoded summary-store entries, so a request
// replays an unchanged function from memory instead of from Options.CacheDir,
// and a's frontend memo, so a request re-lowers only the files that differ
// from the previous request's.
func (a *Analyzer) NewRequestChild() *Analyzer {
	return &Analyzer{specs: a.specs, opts: a.opts, prog: ir.NewProgram(), reg: a.reg.Child(), resident: a.resident, memo: a.memo}
}

// AddSource parses and lowers one mini-C source buffer into the program
// under analysis. Multiple sources merge as with linking (§5.3); duplicate
// definitions follow last-wins, mirroring weak-symbol merging.
func (a *Analyzer) AddSource(filename, src string) error {
	return a.AddSources(map[string]string{filename: src})
}

// AddSources parses and lowers a file set (name → source) and merges it
// into the program under analysis. Files load in sorted-name order, so
// last-wins duplicate definitions resolve the same way on every run. A
// file identical (same name, source and lowering options) to one of the
// previous load through this analyzer's memo, which request children
// share, reuses that load's IR; the frontend_files_reused and
// frontend_files_lowered counters record the split.
func (a *Analyzer) AddSources(files map[string]string) error {
	p, reused, err := a.memo.Program(files, a.lowerOptions())
	if err != nil {
		return err
	}
	a.reg.Count(obs.MFrontendReused, int64(reused))
	a.reg.Count(obs.MFrontendLowered, int64(len(files)-reused))
	a.prog.Merge(p)
	return nil
}

// AddFile reads, parses and lowers one file from disk.
func (a *Analyzer) AddFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return a.AddSource(path, string(data))
}

// AddDir loads every *.c file under dir, recursively, in sorted path
// order (see ReadSources).
func (a *Analyzer) AddDir(dir string) error {
	files, err := ReadSources(dir)
	if err != nil {
		return err
	}
	return a.AddSources(files)
}

// ReadSources reads every *.c file under dir, recursively, keyed by path.
// AddSources and RunSeparate take the result; both order files by name,
// so a directory loads the same way however it is walked.
func ReadSources(dir string) (map[string]string, error) {
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".c") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[path] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return files, nil
}

// NumFunctions returns how many functions are currently loaded.
func (a *Analyzer) NumFunctions() int { return len(a.prog.Funcs) }

// FunctionCFG renders the named function's control-flow graph in Graphviz
// dot syntax (empty string if the function is not defined). Handy when
// triaging a report.
func (a *Analyzer) FunctionCFG(fn string) string {
	f := a.prog.Funcs[fn]
	if f == nil {
		return ""
	}
	return cfg.New(f).Dot()
}

// Run executes the full pipeline: classification, bottom-up summarization,
// and IPP checking. It is RunContext with no deadline.
func (a *Analyzer) Run() (*Result, error) {
	return a.RunContext(context.Background())
}

// effectiveSpecs resolves the run's specifications: the analyzer's base
// specs plus Options.SpecPacks, merged strictly so a conflicting API
// redefinition surfaces as an error rather than a silent last-wins.
func (a *Analyzer) effectiveSpecs() (*spec.Specs, error) {
	if len(a.opts.SpecPacks) == 0 {
		return a.specs.s, nil
	}
	merged := spec.NewSpecs()
	if a.specs.s != nil {
		merged.Merge(a.specs.s)
	}
	for _, name := range a.opts.SpecPacks {
		p, err := spec.Pack(name)
		if err != nil {
			return nil, err
		}
		if err := merged.MergeStrict(p); err != nil {
			return nil, fmt.Errorf("spec pack %s: %w", name, err)
		}
	}
	return merged, nil
}

// coreOptions translates the facade options into the pipeline's: the one
// place rid.Options meets core.Options, shared by every Run variant.
// Unset budgets default individually inside core (the paper's §6.1
// values).
func (a *Analyzer) coreOptions() core.Options {
	opts := core.Options{
		MaxCat2Conds: a.opts.MaxCat2Conds,
		Workers:      a.opts.Workers,
		FuncTimeout:  a.opts.FuncTimeout,
		SolverLimits: solver.Limits{
			MaxConstraints: a.opts.SolverMaxConstraints,
			MaxSplits:      a.opts.SolverMaxSplits,
		},
		Provenance: a.opts.Provenance,
		CacheDir:   a.opts.CacheDir,
		CacheURL:   a.opts.CacheURL,
		Resident:   a.resident,
	}
	opts.Exec.MaxPaths = a.opts.MaxPaths
	opts.Exec.MaxSubcases = a.opts.MaxSubcases
	var tracer obs.Tracer
	if a.opts.TraceWriter != nil {
		tracer = obs.NewJSONLTracer(a.opts.TraceWriter)
	}
	opts.Obs = obs.New(tracer, a.reg)
	if a.opts.QueryTiming {
		opts.Obs.EnableQueryTiming()
	}
	return opts
}

// lowerOptions translates the facade options into the frontend's: the one
// place rid.Options meets lower.Options, shared by AddSources and
// RunSeparate so linked and separate runs lower with the same abstraction.
func (a *Analyzer) lowerOptions() lower.Options {
	return lower.Options{PreserveBitTests: a.opts.PreserveBitTests}
}

// RunContext executes the full pipeline under a context. Cancellation (or
// a deadline) stops the run promptly at the next function or path
// boundary; the returned Result then holds the reports derived so far and
// a "canceled" Diagnostic recording how far the run got. A canceled run
// is still a valid, partial result — err is non-nil only for invalid
// input.
func (a *Analyzer) RunContext(ctx context.Context) (*Result, error) {
	if err := a.prog.Validate(); err != nil {
		return nil, fmt.Errorf("invalid program: %w", err)
	}
	specs, err := a.effectiveSpecs()
	if err != nil {
		return nil, err
	}
	return a.result(core.Analyze(ctx, a.prog, specs, a.coreOptions()), a.prog), nil
}

// RunSeparate is RunContext in the separate-compilation mode of §5.3:
// files (name → source) are lowered one by one instead of through the
// analyzer's program, file groups are analyzed in dependency order, and
// one summary database is shared across groups. It honours the same
// Options — the abstraction options included — and renders through the
// same Result. Sources added with AddSource/AddSources/AddFile/AddDir are
// not part of the run.
func (a *Analyzer) RunSeparate(ctx context.Context, files map[string]string) (*Result, error) {
	specs, err := a.effectiveSpecs()
	if err != nil {
		return nil, err
	}
	// Each file lowers on its own, in name order so the first bad file
	// reported is the same on every run.
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	progs := make(map[string]*ir.Program, len(files))
	for _, n := range names {
		p, err := lower.Program(map[string]string{n: files[n]}, a.lowerOptions())
		if err != nil {
			return nil, err
		}
		progs[n] = p
	}
	res, err := core.AnalyzeFiles(ctx, progs, specs, a.coreOptions())
	if err != nil {
		return nil, err
	}
	return a.result(res, nil), nil
}

// result applies Options.Suppress to a pipeline result and converts it to
// the facade's. prog backs explain's source excerpts; nil omits them.
func (a *Analyzer) result(res *core.Result, prog *ir.Program) *Result {
	if len(a.opts.Suppress) > 0 {
		drop := make(map[string]bool, len(a.opts.Suppress))
		for _, fn := range a.opts.Suppress {
			drop[fn] = true
		}
		kept := res.Reports[:0]
		for _, r := range res.Reports {
			if !drop[r.Fn] {
				kept = append(kept, r)
			}
		}
		res.Reports = kept
	}
	out := &Result{
		Categories: Categories{
			RefcountChanging:    res.Classification.NumRefcount,
			AffectingAnalyzed:   res.Classification.NumAffectingAnalyzed,
			AffectingUnanalyzed: res.Classification.NumAffectingUnanalyzed,
			Other:               res.Classification.NumOther,
		},
		FuncsAnalyzed:   res.Stats.FuncsAnalyzed,
		FuncsTotal:      res.Stats.FuncsTotal,
		PathsEnumerated: res.Stats.PathsEnumerated,
		FuncsTruncated:  res.Stats.FuncsTruncated,
		FuncsTimedOut:   res.Stats.FuncsTimedOut,
		FuncsPanicked:   res.Stats.FuncsPanicked,
		db:              res.DB,
		prog:            prog,
		reports:         res.Reports,
		metrics:         a.reg.Snapshot(),
	}
	for _, d := range res.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, Diagnostic{
			Function: d.Fn,
			Kind:     d.Kind.String(),
			Cause:    d.Cause,
		})
	}
	for _, r := range res.ReportsByFunction() {
		out.Bugs = append(out.Bugs, toBug(r))
	}
	return out
}

// WriteSummaries saves the run's summary database — the predefined API
// summaries plus every derived function summary — to w as JSON (see
// cmd/rid's -save-summaries flag).
func (r *Result) WriteSummaries(w io.Writer) error { return r.db.Save(w) }

// WriteMetrics renders the run's metrics — event counters (paths
// enumerated, subcases forked, solver verdicts, IPP candidates and
// reports) and per-phase wall-clock histograms (count, total, p50, p95,
// max) — in the named format ("text" or "json"); see cmd/rid's -metrics
// flag. Counter lines are deterministic for a single-worker run;
// durations are wall-clock and vary.
func (r *Result) WriteMetrics(w io.Writer, format string) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	return report.WriteMetrics(w, f, r.metrics)
}

// PhaseTiming is one pipeline phase's share of a run: how many spans
// completed and their total wall-clock. The slice from PhaseTimings is
// in fixed phase order with stable names ("run", "classify",
// "enumerate", "exec", "ipp", "solver", "replay", "cacheio", "steal",
// "queue") — the names are append-only wire format, shared with -trace
// and -metrics output.
type PhaseTiming struct {
	Phase string
	Count int64
	Total time.Duration
}

// PhaseTimings returns the run's per-phase timing breakdown. For an
// analyzer made with NewRequestChild the numbers are exact for this run
// alone, whatever the worker count; for a shared-registry analyzer they
// aggregate everything the registry has seen.
func (r *Result) PhaseTimings() []PhaseTiming {
	out := make([]PhaseTiming, 0, len(r.metrics.Phases))
	for _, p := range r.metrics.Phases {
		out = append(out, PhaseTiming{Phase: p.Phase, Count: p.Count, Total: p.Total})
	}
	return out
}

// MetricValue returns the run's value for one named event counter (the
// -metrics wire names: "solver_queries", "store_hits", ...), or 0 for a
// name this build does not know. Same exactness contract as
// PhaseTimings.
func (r *Result) MetricValue(name string) int64 {
	for _, c := range r.metrics.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060"; port 0
// picks a free one) exposing /debug/pprof/ and /debug/vars — the expvar
// globals plus the analyzer's live metrics registry under "rid_metrics".
// It returns a function stopping the server and the bound address. The
// registry is live: a Run in progress is visible as it happens.
// Stopping is graceful: in-flight debug requests (a streaming profile,
// say) get a bounded grace period to finish before the server closes.
func (a *Analyzer) ServeDebug(addr string) (stop func() error, actual string, err error) {
	return obs.Serve(addr, a.reg)
}

// DebugHandler returns the /debug/... handler ServeDebug serves standalone
// (net/http/pprof, /debug/vars with the live metrics registry), for
// embedding under another server's mux — `rid serve` mounts it at /debug/.
func (a *Analyzer) DebugHandler() http.Handler { return obs.DebugMux(a.reg) }

// WritePrometheus renders the analyzer's live metrics registry in
// Prometheus text exposition format v0.0.4: one rid_<counter>_total
// family per event counter and a rid_phase_duration_seconds histogram
// labeled by phase. `rid serve` composes this into its /metrics
// endpoint below the serve-level series; it is also usable standalone
// for scraping a long-lived embedded analyzer.
func (a *Analyzer) WritePrometheus(w io.Writer) error {
	return obs.WritePrometheus(w, a.reg)
}

// LiveMetricValue reads one named event counter from the live registry
// (not a Result snapshot) — 0 for unknown names. `rid serve` uses it
// for the cheap always-on counters in /healthz.
func (a *Analyzer) LiveMetricValue(name string) int64 {
	return a.reg.CounterByName(name)
}

// WriteDiagnostics renders the run's degradation diagnostics to w in the
// named format ("text" or "json"); see cmd/rid's -diag flag.
func (r *Result) WriteDiagnostics(w io.Writer, format string) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	ds := make([]report.Diag, len(r.Diagnostics))
	for i, d := range r.Diagnostics {
		ds[i] = report.Diag{Function: d.Function, Kind: d.Kind, Cause: d.Cause}
	}
	return report.WriteDiags(w, f, ds)
}

func toBug(r *ipp.Report) Bug {
	return Bug{
		Function:   r.Fn,
		File:       r.Pos.File,
		Line:       r.Pos.Line,
		Refcount:   r.Refcount.Key(),
		Resource:   r.Resource,
		DeltaA:     r.DeltaA,
		DeltaB:     r.DeltaB,
		Evidence:   r.Detail(),
		Provenance: fromEvidence(r.Evidence),
	}
}

// EscapeBug is one finding of the Cpychecker-style escape-rule baseline
// (the comparison tool of the paper's Table 2): an object whose net
// refcount change does not match the references escaping the function.
type EscapeBug struct {
	Function string
	Object   string
	Kind     string // "leak" or "over-decrement"
	Net      int
	Want     int
}

// String formats the finding.
func (b EscapeBug) String() string {
	return fmt.Sprintf("%s: %s of %s (net %+d, escapes %d)", b.Function, b.Kind, b.Object, b.Net, b.Want)
}

// RunEscapeRule checks the loaded program against the escape rule of
// Cpychecker/Pungi (§2.1): in any function, the change of an object's
// refcount must equal the number of references escaping via the return
// value or reference-stealing APIs. Useful for Table-2-style side-by-side
// comparisons; RID itself does not rely on this rule.
func (a *Analyzer) RunEscapeRule() ([]EscapeBug, error) {
	if err := a.prog.Validate(); err != nil {
		return nil, fmt.Errorf("invalid program: %w", err)
	}
	var out []EscapeBug
	for _, r := range cpyrule.New(a.specs.s, cpyrule.Config{}).Check(a.prog) {
		out = append(out, EscapeBug{
			Function: r.Fn,
			Object:   r.Object,
			Kind:     r.Kind.String(),
			Net:      r.Net,
			Want:     r.Want,
		})
	}
	return out, nil
}
