package symexec

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/lockgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/summary"
	"repro/internal/sym"
)

// execPath is the reference executor the trie walk replaced: it executes
// one path alone from the entry block, re-running every prefix it shares
// with other paths, and returns the path's entries (with a parallel
// provenance slice under Config.Provenance), whether the sub-case budget
// truncated it, and whether the context expired mid-path. pr.weight is 1,
// so pr.gaveUp counts this path's give-ups.
func (pr *pathRun) execPath(ctx context.Context, fn *ir.Func, path cfg.Path) ([]*summary.Entry, []*EntryProv, bool, bool) {
	pr.weight = 1
	init := getState()
	for _, p := range fn.Params {
		init.vmap[p] = pr.syms.Arg(p)
	}
	states := []*state{init}
	var next, finished []*state
	truncated := false
	canceled := false

	blocks := fn.Body().Blocks
	for bi, b := range path.Blocks {
		if ctx.Err() != nil {
			canceled = true
			break
		}
		nextBlock := -1
		if bi+1 < len(path.Blocks) {
			nextBlock = path.Blocks[bi+1]
		}
		for k, in := range blocks[b].Instrs {
			pr.site = pr.job.siteBase[b] + k
			pr.occ[pr.site]++
			next = next[:0]
			for _, st := range states {
				if st.dead {
					putState(st)
					continue
				}
				for _, ns := range pr.step(fn, st, in, nextBlock) {
					if ns.dead {
						putState(ns)
						continue
					}
					if ns.hasRet || in.Op == ir.OpReturn {
						finished = append(finished, ns)
					} else {
						next = append(next, ns)
					}
				}
			}
			states, next = next, states
			if len(states) > pr.cfg.MaxSubcases {
				for _, st := range states[pr.cfg.MaxSubcases:] {
					putState(st)
				}
				states = states[:pr.cfg.MaxSubcases]
				truncated = true
			}
			if len(states) == 0 {
				break
			}
		}
		if len(states) == 0 {
			break
		}
	}
	for _, st := range states {
		putState(st)
	}

	var entries []*summary.Entry
	var provs []*EntryProv
	for _, st := range finished {
		e := new(summary.Entry)
		prov, ok := pr.finalize(fn, st, e)
		putState(st)
		if !ok {
			continue
		}
		entries = append(entries, e)
		if pr.cfg.Provenance {
			provs = append(provs, prov)
		}
	}
	if len(entries) > pr.cfg.MaxSubcases {
		entries = entries[:pr.cfg.MaxSubcases]
		truncated = true
		if provs != nil {
			provs = provs[:pr.cfg.MaxSubcases]
		}
	}
	return entries, provs, truncated, canceled
}

// trieCase is one executor setting the oracle runs under.
type trieCase struct {
	name   string
	cfg    Config
	limits solver.Limits
}

func trieCases() []trieCase {
	return []trieCase{
		{"subcases1", Config{MaxSubcases: 1}, solver.Limits{}},
		{"subcases2", Config{MaxSubcases: 2}, solver.Limits{}},
		{"subcases10", Config{MaxSubcases: 10}, solver.Limits{}},
		{"noprune", Config{NoPrune: true}, solver.Limits{}},
		{"keeplocal", Config{KeepLocalConds: true}, solver.Limits{}},
		{"provenance", Config{Provenance: true}, solver.Limits{}},
		// One disequality split: give-ups occur, including at shared nodes.
		{"splits1", Config{MaxSubcases: 4}, solver.Limits{MaxSplits: 1}},
	}
}

// trieCorpora returns small generated trees of every corpus family plus
// the core testdata, each with the spec pack it is analyzed under.
func trieCorpora(t *testing.T) map[string]struct {
	files map[string]string
	specs *spec.Specs
} {
	t.Helper()
	type corpus = struct {
		files map[string]string
		specs *spec.Specs
	}
	core := map[string]string{}
	matches, err := filepath.Glob("../core/testdata/*.c")
	if err != nil || len(matches) == 0 {
		t.Fatalf("core testdata: %v (%d files)", err, len(matches))
	}
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		core[filepath.Base(m)] = string(b)
	}
	return map[string]corpus{
		"kernel": {kernelgen.Generate(kernelgen.Config{
			Seed: 7, Mix: kernelgen.PaperMix(),
			SimpleHelpers: 4, ComplexHelpers: 4, OtherFuncs: 10,
		}).Files, spec.LinuxDPM()},
		"pyc": {pycgen.Generate(pycgen.Config{Name: "trie", Seed: 5, Mix: pycgen.Mix{
			Common: 6, RIDOnly: 6, CpyOnly: 3, Correct: 6,
		}}).Files, spec.PythonC()},
		"lock":   {lockgen.Generate(lockgen.Config{Seed: 3, Mix: lockgen.DefaultMix()}).Files, spec.Lock()},
		"fd":     {fdgen.Generate(fdgen.Config{Seed: 3, Mix: fdgen.DefaultMix()}).Files, spec.FD()},
		"core":   {core, spec.LinuxDPM()},
		"shapes": {map[string]string{"shapes.c": trieShapesSrc}, spec.PythonC()},
	}
}

// trieShapesSrc holds the trie's edge shapes: a loop whose back edge
// re-executes a branch block (Figure 6's condition replacement,
// removeCondFrom), and a function whose sub-cases all die inside a prefix
// shared by every path (need's only entry requires [o] != null).
const trieShapesSrc = `
void loop(PyObject *o, int n, int a) {
    int i = 0;
    while (i < n) {
        if (a > i)
            Py_XINCREF(o);
        i = i + 1;
    }
    Py_XDECREF(o);
}

void need(PyObject *o) {
    assert(o != NULL);
    Py_DECREF(o);
}

int dies(PyObject *o, int a) {
    assert(o == NULL);
    need(o);
    if (a > 0) {
        Py_DECREF(o);
        return 1;
    }
    return 0;
}
`

// TestTrieMatchesPerPathExecution is the trie walk's oracle: on every
// corpus family and setting, each path's entries (rendered), provenance,
// truncated and canceled flags, and give-up count must equal what
// executing that path alone from the entry produces. Summaries are built
// bottom-up over the call graph from the trie's own entries, so callers
// fork on real callee summaries.
func TestTrieMatchesPerPathExecution(t *testing.T) {
	ctx := context.Background()
	sawLoopRevisit, sawDeadPrefix := false, false
	for name, c := range trieCorpora(t) {
		prog, err := lower.Program(c.files, lower.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := callgraph.Build(prog)
		for _, tc := range trieCases() {
			tb := sym.NewTable()
			db := summary.NewDB()
			c.specs.ApplyTo(db)
			refSlv := solver.NewWithCache(tc.limits, solver.NewCache())
			ex := New(tb, db, solver.NewWithCache(tc.limits, solver.NewCache()), tc.cfg)
			shared, totalGaveUp := 0, 0
			for _, scc := range g.SCCs() {
				for _, fnName := range scc {
					fn := prog.Funcs[fnName]
					if fn == nil {
						continue
					}
					j := ex.execute(ctx, fn, cfg.Paths(ctx, fn, ex.cfg.MaxPaths, nil))
					res := j.res
					totalGaveUp += res.GaveUp
					if len(j.paths) > 1 {
						shared++
					}
					trieEntries, trieProvs := perPath(res)
					refGaveUp := 0
					for i, p := range j.paths {
						pr := getPathRun(j, refSlv)
						entries, provs, trunc, canc := pr.execPath(ctx, fn, p)
						refGaveUp += pr.gaveUp
						putPathRun(pr)
						where := fmt.Sprintf("%s/%s: %s path %d %v", name, tc.name, fnName, i, p.Blocks)
						if got, want := renderEntries(trieEntries[i]), renderEntries(entries); got != want {
							t.Fatalf("%s: entries differ\ntrie:\n%s\nper-path:\n%s", where, got, want)
						}
						if !reflect.DeepEqual(trieProvs[i], provs) {
							t.Fatalf("%s: provenance differs\ntrie: %+v\nper-path: %+v", where, trieProvs[i], provs)
						}
						f := j.pathFlags[i]
						if f&pathTruncated != 0 != trunc || f&pathCanceled != 0 != canc {
							t.Fatalf("%s: flags %b, per-path truncated/canceled %v/%v", where, f, trunc, canc)
						}
						if fnName == "loop" && revisits(p.Blocks) {
							sawLoopRevisit = true
						}
						if fnName == "dies" && len(j.paths) > 1 && len(entries) == 0 {
							sawDeadPrefix = true
						}
					}
					if res.GaveUp != refGaveUp {
						t.Fatalf("%s/%s: %s: trie counted %d give-ups, per-path %d", name, tc.name, fnName, res.GaveUp, refGaveUp)
					}
					sum := summary.New(fnName)
					sum.Params = fn.Params
					for _, e := range res.Entries {
						sum.Entries = append(sum.Entries, e.Entry)
					}
					db.Put(sum)
				}
			}
			if shared == 0 {
				t.Errorf("%s/%s: no function shared a prefix between paths; oracle too weak", name, tc.name)
			}
			if tc.limits.MaxSplits > 0 && totalGaveUp == 0 && name != "core" && name != "shapes" {
				t.Errorf("%s/%s: no solver give-ups; oracle too weak", name, tc.name)
			}
		}
	}
	if !sawLoopRevisit || !sawDeadPrefix {
		t.Errorf("edge shapes not exercised: loop revisit %v, dead shared prefix %v", sawLoopRevisit, sawDeadPrefix)
	}
}

// TestTrieCanceledMarksEveryPath pins the cancellation contract of the
// trie walk: a context that is done before execution starts marks every
// enumerated path canceled and yields no entries.
func TestTrieCanceledMarksEveryPath(t *testing.T) {
	tb := sym.NewTable()
	prog, err := lower.SourceString("t.c", branchySrc)
	if err != nil {
		t.Fatal(err)
	}
	db := summary.NewDB()
	spec.LinuxDPM().ApplyTo(db)
	fn := prog.Funcs["f"]
	enum := cfg.Paths(context.Background(), fn, 100, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := New(tb, db, solver.New(), DefaultConfig()).execute(ctx, fn, enum)
	if !j.res.Canceled || !j.res.Truncated || len(j.res.Entries) != 0 {
		t.Errorf("canceled=%v truncated=%v entries=%d, want canceled, truncated, none", j.res.Canceled, j.res.Truncated, len(j.res.Entries))
	}
	if len(j.pathFlags) == 0 {
		t.Fatal("no paths enumerated")
	}
	for i, f := range j.pathFlags {
		if f&pathCanceled == 0 {
			t.Errorf("path %d not marked canceled", i)
		}
	}
}

// perPath splits res's entries by path: entries, and provenance (nil for
// a path without entries, as execPath returns it).
func perPath(res Result) ([][]*summary.Entry, [][]*EntryProv) {
	entries := make([][]*summary.Entry, res.NumPaths)
	provs := make([][]*EntryProv, res.NumPaths)
	for _, e := range res.Entries {
		entries[e.PathIndex] = append(entries[e.PathIndex], e.Entry)
		if e.Prov != nil {
			provs[e.PathIndex] = append(provs[e.PathIndex], e.Prov)
		}
	}
	return entries, provs
}

func renderEntries(es []*summary.Entry) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// revisits reports whether a path executes some block twice.
func revisits(blocks []int) bool {
	s := append([]int(nil), blocks...)
	sort.Ints(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return true
		}
	}
	return false
}
