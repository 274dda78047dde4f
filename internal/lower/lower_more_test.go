package lower

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func irOf(t *testing.T, src, fn string) string {
	t.Helper()
	p := mustLower(t, src)
	f := p.Funcs[fn]
	if f == nil {
		t.Fatalf("function %s missing", fn)
	}
	return f.String()
}

func TestLowerForLoop(t *testing.T) {
	text := irOf(t, `
int f(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc = g(i);
    }
    return acc;
}`, "f")
	if !strings.Contains(text, "branch") || !strings.Contains(text, "g(i)") {
		t.Errorf("for loop IR:\n%s", text)
	}
}

func TestLowerForWithoutCond(t *testing.T) {
	// for(;;) with a break.
	mustLower(t, `
int f(int n) {
    for (;;) {
        if (g(n) < 0)
            break;
    }
    return 0;
}`)
}

func TestLowerForWithDeclInit(t *testing.T) {
	mustLower(t, `
int f(int n) {
    for (int i = 0; i < n; i++)
        g(i);
    return 0;
}`)
}

func TestLowerIncDecHavocs(t *testing.T) {
	text := irOf(t, `int f(int a) { a++; --a; return a; }`, "f")
	if strings.Count(text, "= random") < 2 {
		t.Errorf("inc/dec should havoc:\n%s", text)
	}
}

func TestLowerCompoundAssignHavocs(t *testing.T) {
	text := irOf(t, `int f(int a, int b) { a += b; a -= 2; return a; }`, "f")
	if strings.Count(text, "= random") < 2 {
		t.Errorf("compound assign should havoc:\n%s", text)
	}
}

func TestLowerLogicalOrValuePosition(t *testing.T) {
	// && / || used as a value (not in an if) lowers via control flow.
	text := irOf(t, `int f(int a, int b) { int v = (a > 0) || (b > 0); return v; }`, "f")
	if !strings.Contains(text, "= true") || !strings.Contains(text, "= false") {
		t.Errorf("short-circuit value lowering:\n%s", text)
	}
}

func TestLowerNotInBranch(t *testing.T) {
	p := mustLower(t, `
int f(int a) {
    if (!(a > 0))
        return 1;
    return 0;
}`)
	// !(a>0) swaps the branch targets; still exactly one conditional.
	if p.Funcs["f"].Body().NumConds != 1 {
		t.Errorf("NumConds: %d", p.Funcs["f"].Body().NumConds)
	}
}

func TestLowerNotOfVariable(t *testing.T) {
	text := irOf(t, `int f(int a) { int v = !a; return v; }`, "f")
	if !strings.Contains(text, "a == 0") {
		t.Errorf("!a should lower to a == 0:\n%s", text)
	}
}

func TestLowerUnaryMinus(t *testing.T) {
	text := irOf(t, `int f(int a) { int v = -a; return v; }`, "f")
	if !strings.Contains(text, "random") {
		t.Errorf("-a (non-literal) should havoc:\n%s", text)
	}
}

func TestLowerDereference(t *testing.T) {
	text := irOf(t, `int f(int *p) { int v = *p; return v; }`, "f")
	if !strings.Contains(text, "p.*") {
		t.Errorf("*p should load the deref pseudo-field:\n%s", text)
	}
}

func TestLowerAddressOfLocalHavocs(t *testing.T) {
	text := irOf(t, `int f(int a) { int v = g(&a); return v; }`, "f")
	if !strings.Contains(text, "random") {
		t.Errorf("&local should havoc:\n%s", text)
	}
}

func TestLowerIndexHavocs(t *testing.T) {
	text := irOf(t, `int f(int *p, int i) { int v = p[i]; return v; }`, "f")
	if !strings.Contains(text, "random") {
		t.Errorf("p[i] should havoc:\n%s", text)
	}
}

func TestLowerBitNotHavocs(t *testing.T) {
	text := irOf(t, `int f(int a) { int v = ~a; return v; }`, "f")
	if !strings.Contains(text, "random") {
		t.Errorf("~a should havoc:\n%s", text)
	}
}

func TestLowerShiftHavocs(t *testing.T) {
	text := irOf(t, `int f(int a) { int v = a << 2; int w = a >> 1; return v; }`, "f")
	if strings.Count(text, "random") < 2 {
		t.Errorf("shifts should havoc:\n%s", text)
	}
}

func TestLowerAssignAsExpression(t *testing.T) {
	// if ((v = g(a)) != 0) — assignment in value position.
	p := mustLower(t, `
int f(int a) {
    int v;
    if ((v = g(a)) != 0)
        return v;
    return 0;
}`)
	text := p.Funcs["f"].String()
	if !strings.Contains(text, "v = g(a)") {
		t.Errorf("assignment expression:\n%s", text)
	}
}

func TestLowerSizeofHavocs(t *testing.T) {
	text := irOf(t, `int f(void) { int v = sizeof(struct device); return v; }`, "f")
	if !strings.Contains(text, "random") {
		t.Errorf("sizeof should havoc:\n%s", text)
	}
}

func TestLowerStringArgHavocs(t *testing.T) {
	text := irOf(t, `int f(struct device *d) { return dev_err(d, "boom"); }`, "f")
	if !strings.Contains(text, "random") {
		t.Errorf("string literal arg should havoc:\n%s", text)
	}
}

func TestLowerComparisonChainPrecedence(t *testing.T) {
	// a + b < c parses as (a+b) < c; the havocked sum feeds the compare.
	text := irOf(t, `int f(int a, int b, int c) { if (a + b < c) return 1; return 0; }`, "f")
	if !strings.Contains(text, "< c") {
		t.Errorf("comparison:\n%s", text)
	}
}

func TestLowerConditionOnCallResult(t *testing.T) {
	text := irOf(t, `
int f(struct device *d) {
    if (hw_ready(d))
        return 1;
    return 0;
}`, "f")
	// Branch directly on the call result temp (symexec wraps as != 0).
	if !strings.Contains(text, "hw_ready(d)") {
		t.Errorf("call condition:\n%s", text)
	}
}

func TestLowerEmptyFunctionBody(t *testing.T) {
	p := mustLower(t, `void f(void) { }`)
	f := p.Funcs["f"]
	if f.Body().Blocks[0].Terminator().Op != ir.OpReturn {
		t.Errorf("empty body must return:\n%s", f)
	}
}

func TestLowerSourceStringParseError(t *testing.T) {
	if _, err := SourceString("bad.c", "int f( {"); err == nil {
		t.Fatal("expected error")
	}
}
