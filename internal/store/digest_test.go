package store

import (
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/lockgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/spec"
	"repro/internal/summary"
)

// fmtDigests is the digest recipe derived on its own through fmt: each
// member's own digest is SHA-256 of its fmt-rendered canonical text, and
// an SCC hashes the header, the fingerprint, its callee SCCs' digests and,
// per member, the own digest and the extern records. Digests, which
// memoizes the own digests with the lowered bodies, must reproduce it
// byte for byte.
func fmtDigests(g *callgraph.Graph, db *summary.DB, fp Fingerprint) map[string]Digest {
	fph := fp.Hash()
	sccs := g.SCCs()
	sccDigest := make([]Digest, len(sccs))
	for i, members := range sccs {
		h := sha256.New()
		fmt.Fprintf(h, "rid-store v%d\x00", FormatVersion)
		h.Write(fph[:])
		for _, dep := range g.SCCSuccs(i) {
			h.Write(sccDigest[dep][:])
		}
		for _, m := range members {
			f := g.Prog.Funcs[m]
			var text strings.Builder
			fmt.Fprintf(&text, "func %s(%s) ret=%t conds=%d\n",
				f.Name, strings.Join(f.Params, ","), f.HasRet, f.Body().NumConds)
			for _, b := range f.Body().Blocks {
				fmt.Fprintf(&text, "b%d:\n", b.Index)
				for _, in := range b.Instrs {
					fmt.Fprintf(&text, "%s\n", fmtInstr(in))
				}
			}
			own := sha256.Sum256([]byte(text.String()))
			h.Write(own[:])
			for _, callee := range g.All[m] {
				if _, defined := g.Prog.Funcs[callee]; defined {
					continue
				}
				fmt.Fprintf(h, "extern\x00%s\x00", callee)
				if s := db.Get(callee); s != nil {
					fmt.Fprintf(h, "pre=%t def=%t %s", s.Predefined, s.HasDefault, s)
				} else {
					io.WriteString(h, "unknown")
				}
				io.WriteString(h, "\x00")
			}
		}
		h.Sum(sccDigest[i][:0])
	}
	out := make(map[string]Digest, len(g.Nodes))
	for _, fn := range g.Nodes {
		out[fn] = sccDigest[g.SCCOf(fn)]
	}
	return out
}

// fmtValue and fmtInstr are ir.Value.String and ir.Instr.String as first
// written, through fmt.
func fmtValue(v ir.Value) string {
	switch v.Kind {
	case ir.ValVar:
		return v.Var
	case ir.ValInt:
		return fmt.Sprintf("%d", v.Int)
	case ir.ValBool:
		return fmt.Sprintf("%t", v.Bool)
	case ir.ValNull:
		return "null"
	}
	return "?"
}

func fmtInstr(in *ir.Instr) string {
	switch in.Op {
	case ir.OpAssign:
		return fmt.Sprintf("%s = %s", in.Dst, fmtValue(in.Val))
	case ir.OpLoadField:
		return fmt.Sprintf("%s = %s.%s", in.Dst, fmtValue(in.Obj), in.Field)
	case ir.OpRandom:
		return fmt.Sprintf("%s = random", in.Dst)
	case ir.OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmtValue(a)
		}
		call := fmt.Sprintf("%s(%s)", in.Fn, strings.Join(args, ", "))
		if in.Dst != "" {
			return fmt.Sprintf("%s = %s", in.Dst, call)
		}
		return call
	case ir.OpReturn:
		if in.HasVal {
			return fmt.Sprintf("return %s", fmtValue(in.Val))
		}
		return "return"
	case ir.OpCompare:
		return fmt.Sprintf("%s = %s %s %s", in.Dst, fmtValue(in.A), in.Pred, fmtValue(in.B))
	case ir.OpBranchCond:
		return fmt.Sprintf("branch %s, b%d, b%d", fmtValue(in.Cond), in.True, in.False)
	case ir.OpBranch:
		return fmt.Sprintf("branch b%d", in.Target)
	case ir.OpAssume:
		return fmt.Sprintf("assume %s", fmtValue(in.Cond))
	}
	return fmt.Sprintf("op(%d)", int(in.Op))
}

// digestCorpora is one generated tree per corpus family, with the spec
// pack its externs resolve against.
func digestCorpora() []struct {
	name  string
	files map[string]string
	specs *spec.Specs
} {
	return []struct {
		name  string
		files map[string]string
		specs *spec.Specs
	}{
		{"kernelgen", kernelgen.Generate(kernelgen.Config{Seed: 7, Mix: kernelgen.PaperMix(), SimpleHelpers: 10, ComplexHelpers: 8, OtherFuncs: 200}).Files, spec.LinuxDPM()},
		{"pycgen", pycgen.Generate(pycgen.PaperConfigs()[0]).Files, spec.PythonC()},
		{"lockgen", lockgen.Generate(lockgen.Config{Seed: 7, Mix: lockgen.DefaultMix()}).Files, spec.Lock()},
		{"fdgen", fdgen.Generate(fdgen.Config{Seed: 7, Mix: fdgen.DefaultMix()}).Files, spec.FD()},
	}
}

// TestDigestsMatchFmtRecipe pins the digest bytes: the appender-based,
// memoizing Digests equals the fmt recipe on every function of every
// corpus family, with PreserveBitTests off and on.
func TestDigestsMatchFmtRecipe(t *testing.T) {
	for _, c := range digestCorpora() {
		for _, preserve := range []bool{false, true} {
			prog, err := lower.Program(c.files, lower.Options{PreserveBitTests: preserve})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			db := summary.NewDB()
			c.specs.ApplyTo(db)
			g := callgraph.Build(prog)
			got, want := Digests(g, db, testFingerprint()), fmtDigests(g, db, testFingerprint())
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%s: %d digests, fmt recipe %d", c.name, len(got), len(want))
			}
			for fn, d := range want {
				if got[fn] != d {
					t.Errorf("%s (PreserveBitTests=%t): digest of %s differs from the fmt recipe", c.name, preserve, fn)
				}
			}
			for _, fn := range prog.Order {
				for _, b := range prog.Funcs[fn].Body().Blocks {
					for _, in := range b.Instrs {
						if got, want := in.String(), fmtInstr(in); got != want {
							t.Fatalf("%s: instruction renders %q, fmt recipe %q", c.name, got, want)
						}
					}
				}
			}
		}
	}
}

// memoEditHeader matches a top-level "int f(...) {" line and captures f.
var memoEditHeader = regexp.MustCompile(`(?m)^int (\w+)\(.*\) \{$`)

// editFirstFunc returns files with a local declaration inserted into the
// first function of file name, and that function's name.
func editFirstFunc(t *testing.T, files map[string]string, name string) (map[string]string, string) {
	t.Helper()
	src := files[name]
	m := memoEditHeader.FindStringSubmatchIndex(src)
	if m == nil {
		t.Fatalf("%s has no function header", name)
	}
	out := maps.Clone(files)
	out[name] = src[:m[1]] + " int memo_edit = 1;" + src[m[1]:]
	return out, src[m[2]:m[3]]
}

// TestDigestsMemoMatchesFresh runs an edit sequence through one
// lower.Memo, as `rid serve` does: edit a function, restore it, then edit
// a function in another file. At every step the digests of the program
// the memo assembled, whose unchanged functions keep the own digests
// memoized on an earlier step, equal those of a freshly lowered program.
func TestDigestsMemoMatchesFresh(t *testing.T) {
	c := digestCorpora()[0]
	names := make([]string, 0, len(c.files))
	for n := range c.files {
		names = append(names, n)
	}
	sort.Strings(names)
	editA, fnA := editFirstFunc(t, c.files, names[0])
	editB, fnB := editFirstFunc(t, c.files, names[len(names)-1])
	db := summary.NewDB()
	c.specs.ApplyTo(db)
	digests := func(p *ir.Program) map[string]Digest {
		return Digests(callgraph.Build(p), db, testFingerprint())
	}
	base, err := lower.Program(c.files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseDigests := digests(base)

	var memo lower.Memo
	steps := []struct {
		name    string
		files   map[string]string
		changed string // a function whose digest differs from the base tree's
	}{{"base", c.files, ""}, {"edit A", editA, fnA}, {"restore", c.files, ""}, {"edit B", editB, fnB}}
	for i, st := range steps {
		p := ir.NewProgram()
		reused, err := memo.Load(p, st.files, lower.Options{})
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if i > 0 && reused != len(names)-1 {
			t.Fatalf("%s: memo reused %d of %d files, want all but the edited one", st.name, reused, len(names))
		}
		fresh, err := lower.Program(st.files, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, want := digests(p), digests(fresh)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: %d digests, fresh program %d", st.name, len(got), len(want))
		}
		for fn, d := range want {
			if got[fn] != d {
				t.Errorf("%s: digest of %s over the memo differs from a fresh lowering", st.name, fn)
			}
		}
		if st.changed != "" && got[st.changed] == baseDigests[st.changed] {
			t.Errorf("%s: digest of edited %s did not change", st.name, st.changed)
		}
		if st.changed == "" && !maps.Equal(got, baseDigests) {
			t.Errorf("%s: digests differ from the base tree's", st.name)
		}
	}
}

// BenchmarkDigests digests the kernelgen tree of digestCorpora. cold
// digests a freshly lowered program each time, so every function's own
// digest is computed; warm digests one program again, as a warm `rid
// serve` request does for the functions its frontend memo kept.
func BenchmarkDigests(b *testing.B) {
	c := digestCorpora()[0]
	db := summary.NewDB()
	c.specs.ApplyTo(db)
	graph := func() *callgraph.Graph {
		prog, err := lower.Program(c.files, lower.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range prog.Funcs {
			f.Body()
		}
		return callgraph.Build(prog)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := graph()
			b.StartTimer()
			digestSink = Digests(g, db, testFingerprint())
		}
	})
	b.Run("warm", func(b *testing.B) {
		g := graph()
		Digests(g, db, testFingerprint())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			digestSink = Digests(g, db, testFingerprint())
		}
	})
}

var digestSink map[string]Digest
