package parser_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/lower"
)

// loadSeeds are inputs where the loader and a syntax tree kept whole can
// part ways: columns count runes while body offsets count bytes, a
// byte-order mark shifts every offset, and the operands lowering never
// evaluates must not show up in Calls.
var loadSeeds = []string{
	"int f(int é) { return g(é); }",
	"/* ü */ int f(void) { return g(); }\nint h(void) {\n\treturn f();\n}",
	"int f(void) { return 0; } /* ∑ */ int g(void) { return f(); }",
	"\uFEFFint f(void) {\n    return g();\n}",
	"int f(int a) { return sizeof(f()) + a; }",
	"int f(int a) { return sizeof f() + a; }",
	"int f(int a) { f()++; ++g(); return a; }",
	"int f(void) { g() = h(); return 0; }",
	"int f(int *p) { +q() = r(); (s()) = t(); -u() = v(); p[w()] = x(); return 0; }",
	"int f(int a) { if (a) goto one; goto two; return 0; }",
	"int f(int a) { while (a) { if (a) { goto deep; } } return 0; }",
	"int f(int a) { return 0x1g; }",
	"int f(int a) { return a $ 1; }",
	"int g = h(;\nint f(void) { return 0; }",
	"int f(void) { return 0; }\nint g(void) { return 1 +; }",
	"int f(int, struct s *) { return 0; }",
	"#define X 1\nint f(void) {\n#if X\n  return g();\n#endif\n}",
}

// nestingSeeds sit on either side of the nesting bound: a body parse must
// accept each body the file parse accepted, and input nested too deeply
// must fail with the same one error on both paths.
var nestingSeeds = []string{
	"int f(void) { return " + strings.Repeat("(", 999) + "g()" + strings.Repeat(")", 999) + "; }",
	"int f(void) { return " + strings.Repeat("(", 1000) + "g()" + strings.Repeat(")", 1000) + "; }",
	"void f(int a) {" + strings.Repeat("{", 999) + "g(a);" + strings.Repeat("}", 999) + "}",
	"void f(int a) {" + strings.Repeat("{", 1001) + "a;" + strings.Repeat("}", 1001) + "}\nint h(void) { return 0; }",
	"int g = " + strings.Repeat("!", 1001) + "1;\nint f(void) { return g; }",
}

// corpusSeeds returns the inputs checked in for FuzzParser.
func corpusSeeds(t testing.TB) []string {
	paths, err := filepath.Glob("testdata/fuzz/FuzzParser/*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("FuzzParser corpus: %v, %d files", err, len(paths))
	}
	var out []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-string corpus entry", path)
		}
		out = append(out, src)
	}
	return out
}

// FuzzLoadMatchesParseFile is the differential guard of the loader: on
// any input, lower.Program, which parses each file into recycled memory
// and parses a body again from its recorded offset on first use, must
// agree with ParseFile
// and lower.IntoOpts on accept or reject, on the error string (goto errors
// included), on the function and extern lists, on each function's
// signature, position and Calls, and on each body's IR text and
// instruction positions.
func FuzzLoadMatchesParseFile(f *testing.F) {
	for _, seed := range parserSeeds {
		f.Add(seed)
	}
	for _, seed := range loadSeeds {
		f.Add(seed)
	}
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range nestingSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLoad(t, src)
	})
}

func checkLoad(t *testing.T, src string) {
	t.Helper()
	const name = "fuzz.c"
	file, perr := parser.ParseFile(name, src)
	var want *ir.Program
	var wantErr string
	if perr != nil {
		wantErr = "parse " + name + ": " + perr.Error()
	} else {
		want = ir.NewProgram()
		if err := lower.IntoOpts(want, file, lower.Options{}); err != nil {
			wantErr = "lower " + name + ": " + err.Error()
		}
	}
	got, err := lower.Program(map[string]string{name: src}, lower.Options{})
	if gotErr := errString(err); gotErr != wantErr {
		t.Fatalf("error %q, syntax-tree path %q\nsource:\n%s", gotErr, wantErr, src)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got.Order, want.Order) || !reflect.DeepEqual(got.Externs, want.Externs) {
		t.Fatalf("funcs %v externs %v, syntax-tree path %v %v\nsource:\n%s", got.Order, got.Externs, want.Order, want.Externs, src)
	}
	for _, fn := range want.Order {
		g, w := got.Funcs[fn], want.Funcs[fn]
		if !reflect.DeepEqual(g.Params, w.Params) || g.HasRet != w.HasRet || g.Pos != w.Pos || g.SrcFile != w.SrcFile || !reflect.DeepEqual(g.Calls, w.Calls) {
			t.Fatalf("%s: got (%q %t %v %s %q), syntax-tree path (%q %t %v %s %q)\nsource:\n%s",
				fn, g.Params, g.HasRet, g.Pos, g.SrcFile, g.Calls, w.Params, w.HasRet, w.Pos, w.SrcFile, w.Calls, src)
		}
		if gs, ws := g.String(), w.String(); gs != ws {
			t.Fatalf("%s: IR\n%s\nsyntax-tree path\n%s\nsource:\n%s", fn, gs, ws, src)
		}
		if gp, wp := instrPositions(g), instrPositions(w); !reflect.DeepEqual(gp, wp) {
			t.Fatalf("%s: instruction positions %v, syntax-tree path %v\nsource:\n%s", fn, gp, wp, src)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func instrPositions(f *ir.Func) []string {
	var out []string
	for _, b := range f.Body().Blocks {
		for _, in := range b.Instrs {
			out = append(out, in.Pos.String())
		}
	}
	return out
}
