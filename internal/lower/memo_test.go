package lower

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
)

const (
	memoA = `
int helper(int x);
int a_op(struct device *dev, int flags) {
    if (flags & 4)
        return helper(flags);
    return 0;
}
`
	memoB = `
int helper(int x) {
    if (x > 3)
        return 1;
    return 0;
}
int b_op(int y) {
    if (y & 2)
        return 2;
    return helper(y);
}
`
	memoC = `
int c_op(int z) {
    pm_runtime_get(z);
    return 0;
}
`
)

// load loads files into a fresh program through m.
func load(m *Memo, files map[string]string, opts Options) (*ir.Program, int, error) {
	p := ir.NewProgram()
	reused, err := m.Load(p, files, opts)
	return p, reused, err
}

// sameProgram fails unless got and want have the same definition order,
// the same externs, and functions that render alike from the same files
// and positions.
func sameProgram(t *testing.T, step string, got, want *ir.Program) {
	t.Helper()
	if !reflect.DeepEqual(got.Order, want.Order) {
		t.Fatalf("%s: order %v, want %v", step, got.Order, want.Order)
	}
	if !reflect.DeepEqual(got.Externs, want.Externs) {
		t.Fatalf("%s: externs %v, want %v", step, got.Externs, want.Externs)
	}
	for _, name := range want.Order {
		g, w := got.Funcs[name], want.Funcs[name]
		if g.String() != w.String() || g.SrcFile != w.SrcFile || g.Pos != w.Pos {
			t.Fatalf("%s: %s is\n%s(%s at %v), want\n%s(%s at %v)", step, name, g, g.SrcFile, g.Pos, w, w.SrcFile, w.Pos)
		}
	}
}

// TestMemoMatchesProgram is the memo's differential: over a sequence of
// file sets, each step through one memo gives the program a nil memo
// gives, and reuses exactly the files equal to the previous step's.
func TestMemoMatchesProgram(t *testing.T) {
	base := map[string]string{"a.c": memoA, "b.c": memoB, "c.c": memoC}
	with := func(files map[string]string, name, src string) map[string]string {
		out := map[string]string{}
		for k, v := range files {
			out[k] = v
		}
		if src == "" {
			delete(out, name)
		} else {
			out[name] = src
		}
		return out
	}
	edited := with(base, "c.c", strings.Replace(memoC, "return 0", "return 1", 1))
	added := with(edited, "d.c", "int d_op(int w) { return w; }\n")
	deleted := with(added, "a.c", "")
	renamed := with(with(deleted, "b.c", ""), "b2.c", memoB)
	duplicate := with(renamed, "e.c", "int helper(int x) { return x; }\n")

	steps := []struct {
		name   string
		files  map[string]string
		opts   Options
		reused int
	}{
		{"cold", base, Options{}, 0},
		{"repeat", base, Options{}, 3},
		{"edit one file", edited, Options{}, 2},
		{"add a file", added, Options{}, 3},
		{"delete a file", deleted, Options{}, 3},
		// b.c is gone and b2.c is new: same source, other name, so
		// positions name b2.c and the file is lowered again.
		{"rename a file", renamed, Options{}, 2},
		// helper is defined in b2.c and again, last-wins, in e.c.
		{"define twice", duplicate, Options{}, 3},
		{"preserve bit tests", duplicate, Options{PreserveBitTests: true}, 0},
		{"preserve repeat", duplicate, Options{PreserveBitTests: true}, 4},
		{"back to default", duplicate, Options{}, 0},
		// helper is an extern in a.c and defined in b.c.
		{"extern defined elsewhere", base, Options{}, 0},
	}
	m := &Memo{}
	prev := map[string]*ir.Func{}
	for _, st := range steps {
		got, reused, err := load(m, st.files, st.opts)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := Program(st.files, st.opts)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		sameProgram(t, st.name, got, want)
		if reused != st.reused {
			t.Errorf("%s: reused %d files, want %d", st.name, reused, st.reused)
		}
		// A reused file keeps its *ir.Func values; a lowered one gets new ones.
		shared := 0
		for name, fn := range got.Funcs {
			if prev[name] == fn {
				shared++
			}
		}
		if reused == len(st.files) && shared != len(got.Funcs) {
			t.Errorf("%s: all files reused but %d of %d functions shared", st.name, shared, len(got.Funcs))
		}
		if reused == 0 && shared != 0 {
			t.Errorf("%s: no file reused but %d functions shared", st.name, shared)
		}
		prev = got.Funcs
	}
	if lf := m.files[0]; lf.name != "a.c" || !reflect.DeepEqual(lf.externs, []string{"helper"}) {
		t.Fatalf("the last step must hold a.c with its extern helper, holds %s with %v", lf.name, lf.externs)
	}
}

// TestMemoReusesUnchangedFuncs: after a one-file edit, every function of
// the other files is the same *ir.Func the previous call returned.
func TestMemoReusesUnchangedFuncs(t *testing.T) {
	files := map[string]string{}
	for i := 0; i < 5; i++ {
		files[fmt.Sprintf("f%d.c", i)] = fmt.Sprintf("int op%d(int x) { if (x > %d) return 1; return 0; }\n", i, i)
	}
	m := &Memo{}
	before, _, err := load(m, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	files["f2.c"] = "int op2(int x) { return x; }\n"
	after, reused, err := load(m, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reused != 4 {
		t.Fatalf("reused %d files, want 4", reused)
	}
	for name, fn := range after.Funcs {
		if same := before.Funcs[name] == fn; same != (name != "op2") {
			t.Errorf("%s: shared with the previous call = %t", name, same)
		}
	}
}

// TestMemoKeepsSetOnError: a call that fails to parse or lower leaves the
// previous file set in the memo, so the next good call still reuses it.
func TestMemoKeepsSetOnError(t *testing.T) {
	files := map[string]string{"a.c": memoA, "b.c": memoB}
	m := &Memo{}
	if _, _, err := load(m, files, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ src, want string }{
		{"int broken(", "parse bad.c: "},
		{"int f(void) { goto nowhere; }", "lower bad.c: "},
	} {
		_, _, err := load(m, map[string]string{"a.c": memoA, "bad.c": bad.src}, Options{})
		if err == nil || !strings.HasPrefix(err.Error(), bad.want) {
			t.Fatalf("error %v, want prefix %q", err, bad.want)
		}
		if _, reused, err := load(m, files, Options{}); err != nil || reused != 2 {
			t.Fatalf("after a failed call: reused %d, err %v; want the previous set reused", reused, err)
		}
	}
}

// TestMemoConcurrent: goroutines loading overlapping file sets through
// one memo each get the program a nil memo gives. Run under -race.
func TestMemoConcurrent(t *testing.T) {
	sets := []map[string]string{
		{"a.c": memoA, "b.c": memoB, "c.c": memoC},
		{"a.c": memoA, "b.c": memoB, "c.c": strings.Replace(memoC, "return 0", "return 1", 1)},
		{"a.c": memoA, "b.c": memoB},
	}
	want := make([]*ir.Program, len(sets))
	for i, files := range sets {
		p, err := Program(files, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	m := &Memo{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(sets)
				p, _, err := load(m, sets[k], Options{})
				if err != nil {
					t.Error(err)
					return
				}
				for _, name := range want[k].Order {
					if p.Funcs[name].String() != want[k].Funcs[name].String() {
						t.Errorf("goroutine %d, set %d: %s differs from a nil-memo load", g, k, name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNilMemo: a nil memo lowers every file and keeps nothing.
func TestNilMemo(t *testing.T) {
	var m *Memo
	for i := 0; i < 2; i++ {
		if _, reused, err := load(m, map[string]string{"a.c": memoA}, Options{}); err != nil || reused != 0 {
			t.Fatalf("call %d: reused %d, err %v", i, reused, err)
		}
	}
}
