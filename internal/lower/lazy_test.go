package lower

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/lockgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/ir"
)

// loweredCallees is the callee set of f's lowered body, sorted.
func loweredCallees(f *ir.Func) []string {
	var out []string
	for _, b := range f.Body().Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				out = append(out, in.Fn)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestCallsMatchLoweredIR pins the call graph's input: on every corpus
// family and on the core testdata, each function's Calls, read off the
// syntax tree before lowering, equals the callee set of its lowered body,
// and every body validates.
func TestCallsMatchLoweredIR(t *testing.T) {
	sets := map[string]map[string]string{
		"kernelgen": kernelgen.Generate(kernelgen.Config{Seed: 317, Mix: kernelgen.PaperMix(), SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 200}).Files,
		"pycgen":    pycgen.Generate(pycgen.PaperConfigs()[0]).Files,
		"lockgen":   lockgen.Generate(lockgen.Config{Seed: 317, Mix: lockgen.DefaultMix()}).Files,
		"fdgen":     fdgen.Generate(fdgen.Config{Seed: 317, Mix: fdgen.DefaultMix()}).Files,
		"testdata":  {},
	}
	paths, err := filepath.Glob("../core/testdata/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("core testdata: %v, %d files", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sets["testdata"][filepath.Base(p)] = string(data)
	}
	for name, files := range sets {
		for _, preserve := range []bool{false, true} {
			prog, err := Program(files, Options{PreserveBitTests: preserve})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, fn := range prog.Order {
				if prog.Funcs[fn].Lowered() {
					t.Fatalf("%s: %s lowered before first use", name, fn)
				}
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, fn := range prog.Order {
				f := prog.Funcs[fn]
				if got, want := f.Calls, loweredCallees(f); !slices.Equal(got, want) {
					t.Fatalf("%s: %s Calls %v, lowered IR calls %v", name, fn, got, want)
				}
			}
		}
	}
}

// TestCallsSkipWhatLoweringDrops: an increment's operand and a store
// target that is neither a variable nor memory are never lowered, so
// calls inside them are not calls of the function.
func TestCallsSkipWhatLoweringDrops(t *testing.T) {
	p := mustLower(t, `int f(int *p) { q(p)->n++; r(p) = s(p); return t(p); }`)
	f := p.Funcs["f"]
	if want := []string{"s", "t"}; !reflect.DeepEqual(f.Calls, want) || !reflect.DeepEqual(loweredCallees(f), want) {
		t.Fatalf("Calls %v, lowered %v, want %v", f.Calls, loweredCallees(f), want)
	}
}

// TestMemoBodyConcurrentForce: eight goroutines ask for the body of one
// function shared through the memo at once; it is built exactly once and
// every caller sees the same body. Run under -race in CI.
func TestMemoBodyConcurrentForce(t *testing.T) {
	var m Memo
	files := map[string]string{"a.c": memoA, "b.c": memoB}
	if _, _, err := load(&m, files, Options{}); err != nil {
		t.Fatal(err)
	}
	p, reused, err := load(&m, files, Options{})
	if err != nil || reused != 2 {
		t.Fatalf("reload: reused %d, err %v", reused, err)
	}
	f := p.Funcs["b_op"]
	if f.Lowered() {
		t.Fatal("b_op lowered before anyone asked")
	}
	bodies := make([]*ir.Body, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = f.Body()
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil || b != bodies[0] {
			t.Fatalf("goroutine %d got body %p, goroutine 0 %p", i, b, bodies[0])
		}
	}
	if !f.Lowered() || p.Funcs["a_op"].Lowered() {
		t.Fatalf("lowered: b_op %t, a_op %t; want only b_op", f.Lowered(), p.Funcs["a_op"].Lowered())
	}
}
