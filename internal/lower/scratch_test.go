package lower

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
)

// kernelScale is kernelgen's §6.5 scaling corpus: the paper mix times
// scale plus helper and utility mass growing with it (ridperf's
// batch_kernel runs scale 8).
func kernelScale(scale int, seed int64) map[string]string {
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
	}).Files
}

// table1 is the Table-1 tree's shape (experiments.DefaultTable1) with the
// given seed.
func table1(seed int64) map[string]string {
	return kernelgen.Generate(kernelgen.Config{
		Seed: seed, Mix: kernelgen.PaperMix(), SimpleHelpers: 250, ComplexHelpers: 372, OtherFuncs: 10000,
	}).Files
}

// funcsOf returns p's functions in definition order.
func funcsOf(p *ir.Program) []*ir.Func {
	out := make([]*ir.Func, len(p.Order))
	for i, name := range p.Order {
		out[i] = p.Funcs[name]
	}
	return out
}

// TestBodyAllocs bounds what building a body costs on average: a parse
// into recycled slabs, a lowering into recycled scratch, and a body frozen
// into a handful of exact-size arrays. It gates allocation count without
// a clock, so a regression shows in go test.
func TestBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const limit = 15
	for name, files := range map[string]map[string]string{
		"kernelgen-scale8": kernelScale(8, 400),
		"table1":           table1(400),
	} {
		prog, err := Program(files, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fns := funcsOf(prog)
		i := 0
		avg := testing.AllocsPerRun(len(fns)-1, func() {
			fns[i].Body()
			i++
		})
		t.Logf("%s: %.2f allocations per body over %d bodies", name, avg, len(fns)-1)
		if avg > limit {
			t.Errorf("%s: %.2f allocations per body, want at most %d", name, avg, limit)
		}
	}
}

// TestRecycledScratchConcurrentForce: four goroutines force every body
// of kernelgen scale 8 at once, so parsers and lowerers pass between
// bodies and goroutines, and each body still equals the one the syntax
// tree of a serial ParseFile gives, in text and in every instruction's
// position. Run under -race in CI.
func TestRecycledScratchConcurrentForce(t *testing.T) {
	files := kernelScale(8, 400)
	got, err := Program(files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ir.NewProgram()
	for _, n := range sortedNames(files) {
		f, err := parser.ParseFile(n, files[n])
		if err != nil {
			t.Fatal(err)
		}
		if err := IntoOpts(want, f, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	fns := funcsOf(got)
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(fns); i += workers {
				fns[i].Body()
			}
		}(w)
	}
	wg.Wait()
	sameProgram(t, "kernelgen scale 8 forced from 4 goroutines", got, want)
}

// TestLoadAllocs bounds what loading costs per function: one parse of
// each file into recycled memory, a few exact-size arrays per file and
// the builder of each body. It gates allocation count without a clock.
func TestLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const limit = 2.5
	files := table1(317)
	prog, err := Program(files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := Program(files, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	perFunc := avg / float64(len(prog.Order))
	t.Logf("%.0f allocations per load of %d functions: %.2f per function", avg, len(prog.Order), perFunc)
	if perFunc > limit {
		t.Errorf("%.2f allocations per function, want at most %.1f", perFunc, limit)
	}
}

// TestLoadConcurrentRecycled: four goroutines load distinct kernelgen
// scale-8 trees at once, so recycled parsers and declarers pass between
// files and goroutines, and each program equals the one a serial
// ParseFile and IntoOpts give. Every function's Params and Calls have
// their length as capacity, so an append to one leaves every other
// function as it was. Run under -race in CI.
func TestLoadConcurrentRecycled(t *testing.T) {
	const workers = 4
	sets := make([]map[string]string, workers)
	got := make([]*ir.Program, workers)
	errs := make([]error, workers)
	for w := range sets {
		sets[w] = kernelScale(8, int64(500+w))
	}
	var wg sync.WaitGroup
	for w := range sets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = Program(sets[w], Options{})
		}(w)
	}
	wg.Wait()
	for w, files := range sets {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		fns := funcsOf(got[w])
		lists := make([]string, len(fns))
		for i, fn := range fns {
			if cap(fn.Params) != len(fn.Params) || cap(fn.Calls) != len(fn.Calls) {
				t.Fatalf("%s: Params %d/%d, Calls %d/%d (length/capacity)", fn.Name, len(fn.Params), cap(fn.Params), len(fn.Calls), cap(fn.Calls))
			}
			lists[i] = fmt.Sprint(fn.Params, fn.Calls)
		}
		for _, fn := range fns {
			_ = append(fn.Params, "appended")
			_ = append(fn.Calls, "appended")
		}
		for i, fn := range fns {
			if now := fmt.Sprint(fn.Params, fn.Calls); now != lists[i] {
				t.Fatalf("%s: lists %s after appends to the others, were %s", fn.Name, now, lists[i])
			}
		}
		want := ir.NewProgram()
		for _, n := range sortedNames(files) {
			f, err := parser.ParseFile(n, files[n])
			if err != nil {
				t.Fatal(err)
			}
			if err := IntoOpts(want, f, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		sameProgram(t, fmt.Sprintf("tree %d, loaded concurrently", w), got[w], want)
	}
}

// TestFrozenBlocksDoNotAlias: the blocks of a body share one instruction
// array, and each block's Instrs has its own length as capacity, so an
// append to one block copies and leaves its neighbour as it was; so do a
// call's arguments.
func TestFrozenBlocksDoNotAlias(t *testing.T) {
	p := mustLower(t, `
int f(int a) {
	if (a > 0)
		g(a, 1);
	else
		h(a, 2);
	return k(a);
}`)
	b := p.Funcs["f"].Body()
	if len(b.Blocks) < 2 {
		t.Fatalf("f has %d blocks", len(b.Blocks))
	}
	for i, blk := range b.Blocks {
		if cap(blk.Instrs) != len(blk.Instrs) {
			t.Fatalf("b%d: Instrs has length %d, capacity %d", i, len(blk.Instrs), cap(blk.Instrs))
		}
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall && cap(in.Args) != len(in.Args) {
				t.Fatalf("b%d: %s has %d arguments, capacity %d", i, in, len(in.Args), cap(in.Args))
			}
		}
	}
	for i, blk := range b.Blocks {
		before := make([]string, len(b.Blocks))
		for j, other := range b.Blocks {
			before[j] = blockText(other)
		}
		blk.Instrs = append(blk.Instrs, &ir.Instr{Op: ir.OpReturn})
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall {
				in.Args = append(in.Args, ir.Int(99))
			}
		}
		for j, other := range b.Blocks {
			if got := blockText(other); j != i && got != before[j] {
				t.Fatalf("appending to b%d changed b%d:\n%s\nwas\n%s", i, j, got, before[j])
			}
		}
	}
}

func blockText(b *ir.Block) string {
	var out []byte
	for _, in := range b.Instrs {
		out = in.AppendText(out)
		out = append(out, '\n')
	}
	return string(out)
}

func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
