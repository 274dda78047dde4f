package ast_test

import (
	"strings"
	"testing"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/lower"
)

// reparseEquivalent checks the printer's core property: printing and
// re-parsing yields a program whose lowered IR is identical.
func reparseEquivalent(t *testing.T, src string) {
	t.Helper()
	f1, err := parser.ParseFile("orig.c", src)
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	printed := ast.Print(f1)
	f2, err := parser.ParseFile("printed.c", printed)
	if err != nil {
		t.Fatalf("re-parse printed output: %v\n--- printed ---\n%s", err, printed)
	}
	p1 := ir.NewProgram()
	if err := lower.IntoOpts(p1, f1, lower.Options{}); err != nil {
		t.Fatal(err)
	}
	p2 := ir.NewProgram()
	if err := lower.IntoOpts(p2, f2, lower.Options{}); err != nil {
		t.Fatalf("lower printed: %v\n--- printed ---\n%s", err, printed)
	}
	if len(p1.Order) != len(p2.Order) {
		t.Fatalf("function counts differ: %v vs %v", p1.Order, p2.Order)
	}
	for _, name := range p1.Order {
		a, b := irText(p1, name), irText(p2, name)
		if a != b {
			t.Errorf("function %s IR differs after print/re-parse:\n--- original ---\n%s--- printed ---\n%s", name, a, b)
		}
	}
}

func irText(p *ir.Program, name string) string {
	return p.Funcs[name].String()
}

func TestPrintRoundTripBasics(t *testing.T) {
	reparseEquivalent(t, `
extern int pm_runtime_get_sync(struct device *dev);

struct usb_interface {
    struct device dev;
    int flags;
};

int foo(struct device *dev) {
    assert(dev != NULL);
    int v = reg_read(dev, 84);
    if (v <= 0)
        goto exit;
    inc_pmcount(dev);
exit:
    return 0;
}
`)
}

func TestPrintRoundTripControlFlow(t *testing.T) {
	reparseEquivalent(t, `
int f(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (i == 3)
            continue;
        if (i > 10)
            break;
        acc = g(i);
    }
    while (acc > 0)
        acc = h(acc);
    do {
        acc = g(acc);
    } while (acc != 0);
    switch (n) {
    case 1:
        return 1;
    case 2:
        acc = 2;
        break;
    default:
        acc = 0;
    }
    return acc;
}
`)
}

func TestPrintRoundTripExpressions(t *testing.T) {
	reparseEquivalent(t, `
int f(struct usb_interface *intf, int a, int b) {
    int x = a + b;
    int y = !a;
    int z = -5;
    int w = intf->dev.flags;
    if ((a > 0 && b < 5) || a == b)
        x = pm_runtime_get_sync(&intf->dev);
    return x;
}
`)
}

func TestPrintStmtAndExpr(t *testing.T) {
	f, err := parser.ParseFile("t.c", `int f(int a) { return a + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Funcs()[0]
	text := ast.PrintStmt(fn.Body)
	if !strings.Contains(text, "return (a + 1);") {
		t.Errorf("PrintStmt: %s", text)
	}
	ret := fn.Body.Stmts[0].(*ast.ReturnStmt)
	if got := ast.PrintExpr(ret.X); got != "(a + 1)" {
		t.Errorf("PrintExpr: %s", got)
	}
}

func TestPrintOpaqueStruct(t *testing.T) {
	f, err := parser.ParseFile("t.c", "struct device;\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := ast.Print(f); !strings.Contains(got, "struct device;") {
		t.Errorf("opaque struct: %s", got)
	}
}
