package parser

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/frontend/ast"
)

// TestNeverPanics feeds the parser adversarial inputs: random token soup,
// truncated real programs, and deeply nested expressions. The contract is
// total: any input produces an (AST, error) pair, never a panic.
func TestNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	pieces := []string{
		"int", "void", "struct", "if", "else", "while", "goto", "return",
		"(", ")", "{", "}", ";", ",", "->", ".", "=", "==", "&&", "||",
		"foo", "bar", "42", "0x1F", `"str"`, "'c'", "!", "&", "*", "+",
		"assert", "random", "NULL", "case", "switch", "default", ":",
	}
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			b.WriteByte(' ')
			if rng.Intn(10) == 0 {
				b.WriteByte('\n')
			}
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %q: %v", src, r)
				}
			}()
			ParseFile("fuzz.c", src)
		}()
	}
}

func TestTruncatedPrograms(t *testing.T) {
	full := `
int foo(struct device *dev) {
    int v = reg_read(dev, 0x54);
    if (v <= 0)
        goto exit;
    inc_pmcount(dev);
exit:
    return 0;
}
`
	for i := 0; i <= len(full); i += 3 {
		src := full[:i]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on truncation at %d: %v", i, r)
				}
			}()
			ParseFile("trunc.c", src)
		}()
	}
}

func TestDeepNesting(t *testing.T) {
	// 200 nested parens and blocks must not blow the stack or livelock.
	src := "int f(int a) { return " + strings.Repeat("(", 200) + "a" + strings.Repeat(")", 200) + "; }"
	if _, err := ParseFile("deep.c", src); err != nil {
		t.Fatalf("deep parens: %v", err)
	}
	src2 := "void g(int a) " + strings.Repeat("{ if (a > 0) ", 150) + ";" + strings.Repeat("}", 150)
	ParseFile("deep2.c", src2) // errors are fine; panics are not
}

// nested returns head, open depth times, inner, close depth times and
// tail.
func nested(head, open, inner, close, tail string, depth int) string {
	return head + strings.Repeat(open, depth) + inner + strings.Repeat(close, depth) + tail
}

// nestingForms are the recursive forms of the grammar, each nested to a
// given depth inside a function body.
var nestingForms = map[string]func(depth int) string{
	"blocks": func(n int) string { return nested("void f(int a) {", "{", "a;", "}", "}", n) },
	"if":     func(n int) string { return nested("void f(int a) {", "if (a) ", "a;", "", "}", n) },
	"else if": func(n int) string {
		return nested("void f(int a) { if (a) a;", " else if (a) a;", "", "", "}", n-1)
	},
	"while":   func(n int) string { return nested("void f(int a) {", "while (a) ", "a;", "", "}", n) },
	"do":      func(n int) string { return nested("void f(int a) {", "do ", "a;", " while (a);", "}", n) },
	"for":     func(n int) string { return nested("void f(int a) {", "for (;;) ", "a;", "", "}", n) },
	"switch":  func(n int) string { return nested("void f(int a) {", "switch (a) { case 0: ", "a;", "}", "}", n) },
	"labels":  func(n int) string { return nested("void f(int a) {", "l: ", "a;", "", "}", n) },
	"parens":  func(n int) string { return nested("int f(int a) { return ", "(", "a", ")", "; }", n) },
	"casts":   func(n int) string { return nested("int f(int a) { return ", "(long)", "a", "", "; }", n) },
	"calls":   func(n int) string { return nested("int f(int a) { return ", "g(", "a", ")", "; }", n) },
	"indexes": func(n int) string { return nested("int f(int a) { return ", "a[", "0", "]", "; }", n) },
	"unary":   func(n int) string { return nested("int f(int a) { return ", "!", "a", "", "; }", n) },
	"incdec":  func(n int) string { return nested("int f(int a) { return ", "++ ", "a", "", "; }", n) },
	"sizeof":  func(n int) string { return nested("int f(int a) { return ", "sizeof ", "a", "", "; }", n) },
	"assign":  func(n int) string { return nested("int f(int a) { return ", "a = ", "0", "", "; }", n) },
	"global":  func(n int) string { return nested("int g = ", "(", "1", ")", ";", n) },
}

// TestNestingBound: every recursive form parses at maxDepth levels, and
// ParseBody then accepts the body on its own; one level more is refused
// with exactly one error at the token that opens it, however deep the
// input goes on.
func TestNestingBound(t *testing.T) {
	const tooDeep = "nesting deeper than 1000"
	for name, form := range nestingForms {
		src := form(maxDepth)
		err := ParseScoped("deep.c", src, func(f *ast.File) {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					start := BodyStart{fd.BodyOff, fd.Body.P.Line, fd.Body.P.Column}
					if err := ParseBody("deep.c", src, start, func(*ast.BlockStmt) {}); err != nil {
						t.Errorf("%s: body at depth %d: %v", name, maxDepth, err)
					}
				}
			}
		})
		if err != nil {
			t.Errorf("%s at depth %d: %v", name, maxDepth, err)
		}
		for _, depth := range []int{maxDepth + 1, 100 * maxDepth} {
			_, err := ParseFile("deep.c", form(depth))
			if err == nil || strings.Count(err.Error(), "\n") != 0 || !strings.HasSuffix(err.Error(), tooDeep) {
				t.Errorf("%s at depth %d: error %v, want only %q", name, depth, err, tooDeep)
			}
		}
	}
	_, err := ParseFile("deep.c", nestingForms["parens"](maxDepth+1))
	if want := "deep.c:1:1023: " + tooDeep; err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}
}

// TestHugeFileNotPooled: a parser that read more than maxPooledTokens
// tokens does not go back to the pool, so the slabs of a huge file's tree
// are free after one collection.
func TestHugeFileNotPooled(t *testing.T) {
	src := strings.Repeat("int f(int a) { return g(a) + 1; }\n", 1<<15)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	if err := ParseScoped("big.c", src, func(*ast.File) {}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if kept := int64(ms.HeapAlloc) - int64(before); kept > 4<<20 {
		t.Errorf("%.1f MiB still live after parsing %d bytes", float64(kept)/(1<<20), len(src))
	}
}

func TestEmptyAndWhitespaceOnly(t *testing.T) {
	for _, src := range []string{"", "   ", "\n\n\n", "// only a comment\n", "/* block */"} {
		f, err := ParseFile("empty.c", src)
		if err != nil {
			t.Errorf("input %q: %v", src, err)
		}
		if len(f.Decls) != 0 {
			t.Errorf("input %q produced decls", src)
		}
	}
}
