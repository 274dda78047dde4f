package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/spec"
)

// testdataFiles reads every testdata/*.c file, keyed by base name.
func testdataFiles(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata: %v, %d files", err, len(paths))
	}
	files := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = string(data)
	}
	return files
}

// categories classifies one source file and returns every defined
// function's category name.
func categories(t *testing.T, name, src string) map[string]string {
	t.Helper()
	prog, err := lower.SourceString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{})
	out := map[string]string{}
	for _, fn := range prog.Order {
		out[fn] = res.Classification.Category[fn].String()
	}
	return out
}

var wantLine = regexp.MustCompile(`(?m)^// want (\w+) ([a-z-]+)$`)

// TestClassificationProbes checks the categories each testdata file
// declares in its "// want fn category" lines; the scc_* probes put
// refcount changes and category-2 results inside call cycles.
func TestClassificationProbes(t *testing.T) {
	for name, src := range testdataFiles(t) {
		wants := wantLine.FindAllStringSubmatch(src, -1)
		if len(wants) == 0 {
			continue
		}
		got := categories(t, name, src)
		for _, w := range wants {
			if got[w[1]] != w[2] {
				t.Errorf("%s: %s is %s, want %s", name, w[1], got[w[1]], w[2])
			}
		}
	}
}

// TestClassificationRenameInvariant renames every defined function of
// each testdata file consistently — once reversing their name order, then
// in random orders — and requires the same categories under the new names.
func TestClassificationRenameInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, src := range testdataFiles(t) {
		want := categories(t, name, src)
		fns := make([]string, 0, len(want))
		for fn := range want {
			fns = append(fns, fn)
		}
		sort.Strings(fns)
		word := regexp.MustCompile(`\b(` + strings.Join(fns, "|") + `)\b`)
		for trial := 0; trial < 6; trial++ {
			perm := make([]int, len(fns))
			for i := range perm {
				perm[i] = len(fns) - 1 - i
			}
			if trial > 0 {
				perm = rng.Perm(len(fns))
			}
			to := map[string]string{}
			for i, fn := range fns {
				to[fn] = fmt.Sprintf("rn_%03d", perm[i])
			}
			got := categories(t, name, word.ReplaceAllStringFunc(src, func(fn string) string { return to[fn] }))
			for _, fn := range fns {
				if got[to[fn]] != want[fn] {
					t.Errorf("%s trial %d: %s renamed %s is %s, want %s", name, trial, fn, to[fn], got[to[fn]], want[fn])
				}
			}
		}
	}
}

// table1Files is the Table-1 tree (experiments.DefaultTable1).
func table1Files() map[string]string {
	return kernelgen.Generate(kernelgen.Config{
		Seed: 317, Mix: kernelgen.PaperMix(),
		SimpleHelpers: 250, ComplexHelpers: 372, OtherFuncs: 10000,
	}).Files
}

// instrs counts the IR instructions of prog's lowered functions.
func instrs(prog *ir.Program) (lowered, all int) {
	for _, f := range prog.Funcs {
		done := f.Lowered()
		for _, b := range f.Body().Blocks {
			all += len(b.Instrs)
			if done {
				lowered += len(b.Instrs)
			}
		}
	}
	return lowered, all
}

// TestTable1LowersOnlyClassified: on the Table-1 tree a default run lowers
// exactly the category-1 and -2 functions, 941 of them, which hold at most
// a fifth of the program's IR, and funcs_lowered counts them.
func TestTable1LowersOnlyClassified(t *testing.T) {
	if testing.Short() {
		t.Skip("Table-1 tree")
	}
	prog, err := lower.Program(table1Files(), lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res := Analyze(context.Background(), prog, spec.LinuxDPM(), Options{Obs: obs.New(nil, reg)})
	cl := res.Classification
	want := cl.NumRefcount + cl.NumAffectingAnalyzed + cl.NumAffectingUnanalyzed
	if got := reg.Counter(obs.MFuncsLowered); got != int64(want) || got != 941 {
		t.Errorf("funcs_lowered = %d, want the %d category-1/2 functions, 941", got, want)
	}
	for fn, f := range prog.Funcs {
		if c := cl.Category[fn]; f.Lowered() != (c == CatRefcount || c == CatAffecting) {
			t.Fatalf("%s (%s) lowered = %t", fn, c, f.Lowered())
		}
	}
	lowered, all := instrs(prog)
	if lowered*5 > all {
		t.Errorf("lowered %d of %d IR instructions, want at most 20%%", lowered, all)
	}
	t.Logf("lowered %d of %d functions, %d of %d IR instructions", want, len(prog.Funcs), lowered, all)
}

// TestAnalyzeAllAndCacheLowerEverything: a run that summarizes every
// function, and a run that digests every function for the summary store,
// lower every body and say so.
func TestAnalyzeAllAndCacheLowerEverything(t *testing.T) {
	files := kernelgen.Generate(kernelgen.Config{Seed: 7, Mix: kernelgen.PaperMix(), SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 60}).Files
	for _, opts := range []Options{{AnalyzeAll: true}, {CacheDir: t.TempDir()}} {
		prog, err := lower.Program(files, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		opts.Obs = obs.New(nil, reg)
		Analyze(context.Background(), prog, spec.LinuxDPM(), opts)
		if got := reg.Counter(obs.MFuncsLowered); got != int64(len(prog.Funcs)) {
			t.Errorf("AnalyzeAll=%t CacheDir=%t: funcs_lowered = %d of %d", opts.AnalyzeAll, opts.CacheDir != "", got, len(prog.Funcs))
		}
	}
}

// TestLazyLoweringConcurrentRuns: four runs at four workers each share one
// unlowered program, so bodies are first forced from many goroutines at
// once; every run must report what a run over a fresh program reports.
// Run under -race in CI.
func TestLazyLoweringConcurrentRuns(t *testing.T) {
	files := kernelgen.Generate(kernelgen.Config{Seed: 7, Mix: kernelgen.PaperMix(), SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 60}).Files
	load := func() *ir.Program {
		prog, err := lower.Program(files, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	render := func(res *Result) []string {
		var out []string
		for _, r := range res.ReportsByFunction() {
			out = append(out, r.Fn+" "+r.Refcount.Key())
		}
		return out
	}
	want := render(Analyze(context.Background(), load(), spec.LinuxDPM(), Options{}))
	shared := load()
	got := make([][]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = render(Analyze(context.Background(), shared, spec.LinuxDPM(), Options{Workers: 4}))
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("run %d: reports %v, want %v", i, g, want)
		}
	}
}
