package obs

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metric identifies one counter in the Registry. The set replaces the
// ad-hoc fields that used to feed core.Stats: every stage increments its
// counters at the event site, atomically, so totals are exact regardless
// of worker count or when a snapshot is taken.
type Metric uint8

// The counter taxonomy. Names (see Metric.Name) are the wire format of
// `rid -metrics` and /debug/vars and are append-only.
const (
	MFuncsAnalyzed    Metric = iota // functions summarized (Step II ran)
	MPathsEnumerated                // entry-to-exit paths produced by Step I
	MPathsTruncated                 // functions whose enumeration hit MaxPaths
	MSubcasesForked                 // states forked on callee summary entries
	MSummaryEntries                 // finalized per-path summary entries
	MSolverQueries                  // satisfiability queries issued
	MSolverCacheHits                // queries answered from the shared cache
	MSolverSat                      // SAT verdicts (give-ups included)
	MSolverUnsat                    // UNSAT verdicts
	MSolverGaveUp                   // queries over budget, answered SAT
	MIPPCandidates                  // Step III pairs that reached the solver
	MIPPConfirmed                   // inconsistent path pair reports emitted
	MReplayConfirmed                // reports whose witness replay confirmed the IPP
	MReplayDiverged                 // reports whose replay contradicted the static claim
	MReplayUnreplayed               // reports whose recorded paths were not reproduced
	MStoreHits                      // functions served from the persistent summary store
	MStoreMisses                    // functions analyzed cold (absent or stale store entry)
	MStoreEvictions                 // stale store entries replaced by a fresh write
	MTasksExecuted                  // path-trie subtree tasks executed (any worker)
	MTasksStolen                    // tasks executed by a worker other than the enqueuer
	MRemoteHits                     // functions served from the fleet summary store
	MRemoteMisses                   // fleet-store lookups that found no usable entry
	MRemoteErrors                   // fleet-store operations that failed (timeout, refusal, 5xx)
	MRemoteIntegrity                // fleet-store responses rejected by validation
	MRemotePuts                     // entries shipped to the fleet store (write-behind)
	MResidentHits                   // store hits served from the daemon-resident tier (no disk read)
	MFrontendReused                 // source files whose lowered IR was reused from an earlier load
	MFrontendLowered                // source files parsed (their functions lower on first use)
	MFuncsLowered                   // function bodies lowered during the run
	numMetrics
)

var metricNames = [numMetrics]string{
	MFuncsAnalyzed:    "funcs_analyzed",
	MPathsEnumerated:  "paths_enumerated",
	MPathsTruncated:   "paths_truncated",
	MSubcasesForked:   "subcases_forked",
	MSummaryEntries:   "summary_entries",
	MSolverQueries:    "solver_queries",
	MSolverCacheHits:  "solver_cache_hits",
	MSolverSat:        "solver_sat",
	MSolverUnsat:      "solver_unsat",
	MSolverGaveUp:     "solver_gave_up",
	MIPPCandidates:    "ipp_candidates",
	MIPPConfirmed:     "ipp_confirmed",
	MReplayConfirmed:  "replay_confirmed",
	MReplayDiverged:   "replay_diverged",
	MReplayUnreplayed: "replay_unreplayed",
	MStoreHits:        "store_hits",
	MStoreMisses:      "store_misses",
	MStoreEvictions:   "store_evictions",
	MTasksExecuted:    "tasks_executed",
	MTasksStolen:      "tasks_stolen",
	MRemoteHits:       "remote_hits",
	MRemoteMisses:     "remote_misses",
	MRemoteErrors:     "remote_errors",
	MRemoteIntegrity:  "remote_integrity_errors",
	MRemotePuts:       "remote_puts",
	MResidentHits:     "store_resident_hits",
	MFrontendReused:   "frontend_files_reused",
	MFrontendLowered:  "frontend_files_lowered",
	MFuncsLowered:     "funcs_lowered",
}

// Name returns the stable metric name used in -metrics and /debug/vars.
func (m Metric) Name() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return "metric" + strconv.Itoa(int(m))
}

// counter is a cache-line-padded atomic, so independent counters hammered
// by different workers never share a line (the counters themselves are
// single atomics: at pipeline rates — at most a few million increments per
// second — contention on one cache line is far below measurement noise,
// and padding keeps neighbors out of the blast radius).
type counter struct {
	v atomic.Int64
	_ [56]byte
}

// histBuckets is enough log2(ns) buckets to cover ~9 minutes per span.
const histBuckets = 40

// hist is a lock-free log-scale duration histogram.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64 // total ns
	max     atomic.Int64 // ns
	minP1   atomic.Int64 // smallest observation in ns, plus one; 0 before any
	buckets [histBuckets]atomic.Int64
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
	for {
		m := h.minP1.Load()
		if (m != 0 && ns+1 >= m) || h.minP1.CompareAndSwap(m, ns+1) {
			break
		}
	}
	i := bits.Len64(uint64(ns)) // 0 → bucket 0, [2^(k-1), 2^k) → bucket k
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// minNS returns the smallest observation in ns (0 before any).
func (h *hist) minNS() int64 {
	if m := h.minP1.Load(); m > 0 {
		return m - 1
	}
	return 0
}

// quantile returns an estimate of the q-quantile (0 < q ≤ 1) from the log
// buckets: the midpoint of the bucket holding the q-th observation,
// clamped to the observed [min, max]. Exact to within a factor of 1.5,
// which is plenty for "where did the time go" attribution, and never
// outside the range of what was actually observed.
func (h *hist) quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	est := h.max.Load()
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i <= 1 {
				est = int64(i) // 0 or 1 ns
			} else {
				lo := int64(1) << (i - 1)
				est = lo + lo/2 // midpoint of [2^(i-1), 2^i)
			}
			break
		}
	}
	return time.Duration(min(max(est, h.minNS()), h.max.Load()))
}

// WorkerCounters is the utilization record of one scheduler worker:
// tasks executed, tasks stolen from another worker's deque, and total
// busy time. All fields are atomics so workers update without locks; the
// struct is padded so neighboring workers never share a cache line.
type WorkerCounters struct {
	tasks  atomic.Int64
	stolen atomic.Int64
	busyNS atomic.Int64
	_      [40]byte
}

// AddTask records one executed task: stolen marks cross-worker execution,
// d is the wall-clock the task occupied the worker.
func (w *WorkerCounters) AddTask(stolen bool, d time.Duration) {
	w.tasks.Add(1)
	if stolen {
		w.stolen.Add(1)
	}
	w.busyNS.Add(int64(d))
}

// AddBusy adds non-task scheduler work (function prepare/merge/check time
// spent by the driving worker) to the busy total.
func (w *WorkerCounters) AddBusy(d time.Duration) { w.busyNS.Add(int64(d)) }

// Registry is the shared metrics store: a fixed set of padded atomic
// counters plus one duration histogram per phase, and one utilization
// record per scheduler worker. One Registry serves an entire run (every
// scheduler worker) and may outlive it —
// cmd/rid keeps a single registry across -separate file groups, and
// ServeDebug exposes it live.
type Registry struct {
	counters [numMetrics]counter
	phases   [numPhases]hist

	// parent, when non-nil, receives a copy of every Count and Observe —
	// the request-scoped rollup `rid serve` uses (see Child).
	parent *Registry

	workersMu sync.Mutex
	workers   []*WorkerCounters
}

// Worker returns the utilization record for worker i, growing the table
// on first use. Safe for concurrent registration; the returned pointer is
// stable for the registry's lifetime.
func (r *Registry) Worker(i int) *WorkerCounters {
	r.workersMu.Lock()
	for len(r.workers) <= i {
		r.workers = append(r.workers, &WorkerCounters{})
	}
	w := r.workers[i]
	r.workersMu.Unlock()
	return w
}

// NumWorkers returns how many workers have registered utilization records.
func (r *Registry) NumWorkers() int {
	r.workersMu.Lock()
	defer r.workersMu.Unlock()
	return len(r.workers)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Child returns a fresh registry whose every Count and Observe also
// lands in r (and transitively in r's own parent): the request-scoped
// rollup seam. A serve request runs against a child, reads its own
// counters back as an exact per-request delta — the same mechanism that
// made Stats.Solver exact under Workers>1 — while the long-lived parent
// keeps aggregating across all requests. The rollup is lock-free: one
// extra atomic add per event, no shared state beyond the counters
// themselves.
func (r *Registry) Child() *Registry { return &Registry{parent: r} }

// Count adds d to metric m, and to every ancestor registry.
func (r *Registry) Count(m Metric, d int64) {
	for q := r; q != nil; q = q.parent {
		q.counters[m].v.Add(d)
	}
}

// Counter returns the current value of metric m.
func (r *Registry) Counter(m Metric) int64 {
	return r.counters[m].v.Load()
}

// CounterByName returns the value of the named counter (the -metrics
// wire names), or 0 for an unknown name. Callers outside the obs layer
// use it to read single counters without importing the Metric taxonomy.
func (r *Registry) CounterByName(name string) int64 {
	for m := Metric(0); m < numMetrics; m++ {
		if m.Name() == name {
			return r.Counter(m)
		}
	}
	return 0
}

// Observe records one completed span duration for phase ph, in r and in
// every ancestor registry.
func (r *Registry) Observe(ph Phase, d time.Duration) {
	for q := r; q != nil; q = q.parent {
		q.phases[ph].observe(int64(d))
	}
}

// ---------------------------------------------------------------------------
// Snapshots

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// PhaseStats summarizes one phase histogram.
type PhaseStats struct {
	Phase string        `json:"phase"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	Max   time.Duration `json:"max_ns"`
}

// WorkerStats is one worker's utilization reading in a snapshot.
type WorkerStats struct {
	Worker int           `json:"worker"`
	Tasks  int64         `json:"tasks"`
	Stolen int64         `json:"stolen"`
	Busy   time.Duration `json:"busy_ns"`
}

// Snapshot is a point-in-time copy of the registry, in fixed metric and
// phase order (deterministic output shape regardless of activity).
// Workers holds one utilization record per scheduler worker — every run
// registers at least worker 0 — and is absent only from registries no
// scheduler ran against.
type Snapshot struct {
	Counters []CounterValue `json:"counters"`
	Phases   []PhaseStats   `json:"phases"`
	Workers  []WorkerStats  `json:"workers,omitempty"`
}

// Snapshot copies the registry. Concurrent-safe; the copy is not atomic
// across counters (each counter individually is).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: make([]CounterValue, numMetrics),
		Phases:   make([]PhaseStats, numPhases),
	}
	for m := Metric(0); m < numMetrics; m++ {
		s.Counters[m] = CounterValue{Name: m.Name(), Value: r.Counter(m)}
	}
	for p := Phase(0); p < numPhases; p++ {
		h := &r.phases[p]
		s.Phases[p] = PhaseStats{
			Phase: p.String(),
			Count: h.count.Load(),
			Total: time.Duration(h.sum.Load()),
			P50:   h.quantile(0.50),
			P95:   h.quantile(0.95),
			Max:   time.Duration(h.max.Load()),
		}
	}
	r.workersMu.Lock()
	for i, w := range r.workers {
		s.Workers = append(s.Workers, WorkerStats{
			Worker: i,
			Tasks:  w.tasks.Load(),
			Stolen: w.stolen.Load(),
			Busy:   time.Duration(w.busyNS.Load()),
		})
	}
	r.workersMu.Unlock()
	return s
}

// Phase returns the snapshot's stats for ph.
func (s Snapshot) Phase(ph Phase) PhaseStats {
	if int(ph) < len(s.Phases) {
		return s.Phases[ph]
	}
	return PhaseStats{Phase: ph.String()}
}

// Counter returns the snapshot's value for m.
func (s Snapshot) Counter(m Metric) int64 {
	if int(m) < len(s.Counters) {
		return s.Counters[m].Value
	}
	return 0
}
