package lower

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func mustLower(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := SourceString("test.c", src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid IR: %v", err)
	}
	return p
}

func TestLowerFigure1Foo(t *testing.T) {
	src := `
int reg_read(struct device *d, int reg);
void inc_pmcount(struct device *d);

int foo(struct device *dev) {
    assert(dev != NULL);
    int v = reg_read(dev, 0x54);
    if (v <= 0)
        goto exit;
    inc_pmcount(dev);
exit:
    return 0;
}
`
	p := mustLower(t, src)
	foo := p.Funcs["foo"]
	if foo == nil {
		t.Fatal("foo not lowered")
	}
	if !p.Externs["reg_read"] || !p.Externs["inc_pmcount"] {
		t.Errorf("externs: %v", p.Externs)
	}
	text := foo.String()
	for _, want := range []string{"assume", "v = reg_read(dev, 84)", "inc_pmcount(dev)", "return 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in IR:\n%s", want, text)
		}
	}
	if foo.Body().NumConds != 1 {
		t.Errorf("NumConds = %d, want 1", foo.Body().NumConds)
	}
	if len(foo.Calls) != 2 {
		t.Errorf("callees: %v", foo.Calls)
	}
}

func TestLowerShortCircuit(t *testing.T) {
	src := `
int f(int a, int b) {
    if (a > 0 && b < 5)
        return 1;
    return 0;
}
`
	p := mustLower(t, src)
	f := p.Funcs["f"]
	// Two conditional branches (one per operand of &&).
	if f.Body().NumConds != 2 {
		t.Errorf("NumConds = %d, want 2\n%s", f.Body().NumConds, f)
	}
}

func TestLowerLoopsHaveBackEdges(t *testing.T) {
	src := `
int f(int n) {
    int i = 0;
    while (i < n)
        i = g(i);
    return i;
}
`
	p := mustLower(t, src)
	f := p.Funcs["f"]
	// Find a back edge: an edge to a lower-or-equal indexed block that
	// dominates... here simply an edge from a later block to an earlier one.
	hasBack := false
	for _, b := range f.Body().Blocks {
		for _, s := range b.Succs() {
			if s <= b.Index && s != 0 {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Errorf("no back edge found:\n%s", f)
	}
}

func TestLowerArithmeticHavocs(t *testing.T) {
	src := `int f(int a, int b) { int x = a + b; return x; }`
	p := mustLower(t, src)
	text := p.Funcs["f"].String()
	if !strings.Contains(text, "random") {
		t.Errorf("a+b should lower to random:\n%s", text)
	}
}

func TestLowerBitOpsHavoc(t *testing.T) {
	src := `int f(int flags) { if (flags & 4) return 1; return 0; }`
	p := mustLower(t, src)
	text := p.Funcs["f"].String()
	if !strings.Contains(text, "random") {
		t.Errorf("flags&4 should lower to random:\n%s", text)
	}
}

func TestLowerAddressOfFieldIsFieldLoad(t *testing.T) {
	src := `
int g(struct usb_interface *intf) {
    return pm_runtime_get_sync(&intf->dev);
}
`
	p := mustLower(t, src)
	text := p.Funcs["g"].String()
	if !strings.Contains(text, "= intf.dev") {
		t.Errorf("&intf->dev should lower to a field load:\n%s", text)
	}
}

func TestLowerFieldStoreDropped(t *testing.T) {
	src := `
void f(struct device *d) {
    d->flags = 1;
}
`
	p := mustLower(t, src)
	f := p.Funcs["f"]
	for _, b := range f.Body().Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAssign {
				t.Errorf("field store must not produce an assignment: %s", in)
			}
		}
	}
}

func TestLowerReturnVoid(t *testing.T) {
	src := `void f(void) { g(); }`
	p := mustLower(t, src)
	f := p.Funcs["f"]
	last := f.Body().Blocks[len(f.Body().Blocks)-1]
	term := last.Terminator()
	if term.Op != ir.OpReturn || term.HasVal {
		t.Errorf("void return: %s", term)
	}
}

func TestLowerBreakContinue(t *testing.T) {
	src := `
int f(int n) {
    int i = 0;
    int r = 0;
    while (i < n) {
        i = g(i);
        if (i == 2) continue;
        if (i == 9) break;
        r = h(i);
    }
    return r;
}
`
	mustLower(t, src) // Validate() inside checks all branch targets
}

func TestLowerSwitchFallthrough(t *testing.T) {
	src := `
int f(int n) {
    int r = 0;
    switch (n) {
    case 1:
        r = g(1);
    case 2:
        r = g(2);
        break;
    default:
        r = g(3);
    }
    return r;
}
`
	p := mustLower(t, src)
	f := p.Funcs["f"]
	if f == nil {
		t.Fatal("f missing")
	}
	// All three g calls must be reachable in the IR.
	calls := 0
	for _, b := range f.Body().Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Fn == "g" {
				calls++
			}
		}
	}
	if calls != 3 {
		t.Errorf("g calls: %d, want 3", calls)
	}
}

func TestLowerUndefinedGotoFails(t *testing.T) {
	src := `void f(void) { goto nowhere; }`
	_, err := SourceString("t.c", src)
	if err == nil {
		t.Fatal("expected error for undefined label")
	}
}

func TestLowerMergePrograms(t *testing.T) {
	p1 := mustLower(t, `int a(void) { return b(); }`)
	p2 := mustLower(t, `int b(void) { return 1; }`)
	p1.Merge(p2)
	if p1.Funcs["b"] == nil {
		t.Error("merge lost b")
	}
	if p1.Externs["b"] {
		t.Error("definition should clear extern mark")
	}
}

func TestLowerCalleesDeduplicated(t *testing.T) {
	src := `void f(struct device *d) { g(d); g(d); h(d); }`
	p := mustLower(t, src)
	c := p.Funcs["f"].Calls
	if len(c) != 2 || c[0] != "g" || c[1] != "h" {
		t.Errorf("callees: %v", c)
	}
}

func TestLowerNestedCallArgs(t *testing.T) {
	src := `int f(struct device *d) { return outer(inner(d), 3); }`
	p := mustLower(t, src)
	text := p.Funcs["f"].String()
	if !strings.Contains(text, "inner(d)") || !strings.Contains(text, "outer(") {
		t.Errorf("nested calls:\n%s", text)
	}
}

func TestLowerDoWhileBackEdge(t *testing.T) {
	src := `
int f(int n) {
    do {
        n = g(n);
    } while (n > 0);
    return n;
}
`
	p := mustLower(t, src)
	f := p.Funcs["f"]
	hasBack := false
	for _, b := range f.Body().Blocks {
		for _, s := range b.Succs() {
			if s < b.Index && s != 0 {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Errorf("no back edge:\n%s", f)
	}
}

func TestLowerNegativeLiteral(t *testing.T) {
	src := `int f(void) { return -1; }`
	p := mustLower(t, src)
	text := p.Funcs["f"].String()
	if !strings.Contains(text, "return -1") {
		t.Errorf("negative literal:\n%s", text)
	}
}
