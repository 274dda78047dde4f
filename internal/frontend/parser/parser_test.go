package parser

import (
	"strings"
	"testing"

	"repro/internal/frontend/ast"
)

// mustParse parses src and fails the test on any syntax error.
func mustParse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := ParseFile("test.c", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return f
}

func TestParseFigure1Foo(t *testing.T) {
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
	f := mustParse(t, src)
	if len(f.Decls) != 3 {
		t.Fatalf("decls: got %d, want 3", len(f.Decls))
	}
	funcs := f.Funcs()
	if len(funcs) != 1 || funcs[0].Name != "foo" {
		t.Fatalf("definitions: got %v", funcs)
	}
	foo := funcs[0]
	if len(foo.Params) != 1 || foo.Params[0].Name != "dev" {
		t.Fatalf("params: %+v", foo.Params)
	}
	if !foo.Params[0].Type.IsPointer() || foo.Params[0].Type.Name != "device" {
		t.Errorf("param type: %s", foo.Params[0].Type)
	}
	// Prototypes have nil bodies.
	proto := f.Decls[0].(*ast.FuncDecl)
	if proto.Body != nil || proto.Name != "reg_read" {
		t.Errorf("prototype: %+v", proto)
	}
}

func TestParseStructDecl(t *testing.T) {
	src := `
struct device;
struct usb_interface {
    struct device dev;
    int flags;
};
`
	f := mustParse(t, src)
	if len(f.Structs) != 2 {
		t.Fatalf("structs: got %d, want 2", len(f.Structs))
	}
	if f.Structs[0].Tag != "device" || len(f.Structs[0].Fields) != 0 {
		t.Errorf("opaque struct: %+v", f.Structs[0])
	}
	usb := f.Structs[1]
	if usb.Tag != "usb_interface" || len(usb.Fields) != 2 {
		t.Fatalf("usb_interface: %+v", usb)
	}
	if usb.Fields[0].Name != "dev" || usb.Fields[1].Name != "flags" {
		t.Errorf("fields: %+v", usb.Fields)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
int f(int n) {
    int i;
    int acc = 0;
    for (i = 0; i < n; i++) {
        if (i == 3) continue;
        if (i > 10) break;
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
`
	f := mustParse(t, src)
	fn := f.Funcs()[0]
	kinds := map[string]bool{}
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BlockStmt:
			kinds["block"] = true
			for _, st := range s.Stmts {
				walk(st)
			}
		case *ast.ForStmt:
			kinds["for"] = true
			walk(s.Body)
		case *ast.WhileStmt:
			kinds["while"] = true
			walk(s.Body)
		case *ast.DoWhileStmt:
			kinds["dowhile"] = true
			walk(s.Body)
		case *ast.SwitchStmt:
			kinds["switch"] = true
			for _, c := range s.Cases {
				for _, st := range c.Body {
					walk(st)
				}
			}
		case *ast.IfStmt:
			kinds["if"] = true
			walk(s.Then)
		case *ast.BreakStmt:
			kinds["break"] = true
		case *ast.ContinueStmt:
			kinds["continue"] = true
		case *ast.ReturnStmt:
			kinds["return"] = true
		}
	}
	walk(fn.Body)
	for _, want := range []string{"for", "while", "dowhile", "switch", "if", "break", "continue", "return"} {
		if !kinds[want] {
			t.Errorf("missing statement kind %q", want)
		}
	}
}

func TestParseExpressions(t *testing.T) {
	src := `
int f(struct device *dev, int a, int b) {
    int x = a + b * 3;
    int y = (a < b) && (b != 0);
    int z = !a || b >= 2;
    int w = dev->parent->flags;
    int v = -5;
    x = reg_read(dev, 0x10);
    x += 2;
    x++;
    return x;
}
`
	f := mustParse(t, src)
	if len(f.Funcs()) != 1 {
		t.Fatal("expected one function")
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `int f(int a, int b, int c) { int x = a + b < c; return x; }`
	f := mustParse(t, src)
	body := f.Funcs()[0].Body
	decl := body.Stmts[0].(*ast.DeclStmt)
	be, ok := decl.Init.(*ast.BinaryExpr)
	if !ok {
		t.Fatalf("init: %T", decl.Init)
	}
	// a+b < c: top node must be the comparison.
	if be.Op.String() != "<" {
		t.Errorf("top operator: %s, want <", be.Op)
	}
}

func TestParseAddressOfField(t *testing.T) {
	src := `
int g(struct usb_interface *intf) {
    return pm_runtime_get_sync(&intf->dev);
}
`
	f := mustParse(t, src)
	ret := f.Funcs()[0].Body.Stmts[0].(*ast.ReturnStmt)
	call := ret.X.(*ast.CallExpr)
	if call.Fun != "pm_runtime_get_sync" || len(call.Args) != 1 {
		t.Fatalf("call: %+v", call)
	}
	un, ok := call.Args[0].(*ast.UnaryExpr)
	if !ok {
		t.Fatalf("arg: %T", call.Args[0])
	}
	fe, ok := un.X.(*ast.FieldExpr)
	if !ok || fe.Name != "dev" || !fe.Arrow {
		t.Fatalf("field: %+v", un.X)
	}
}

func TestParseTypedefNames(t *testing.T) {
	src := `
irqreturn_t handler(int irq, void *data) {
    PyObject *obj;
    obj = PyList_New(2);
    if (obj == NULL)
        return IRQ_NONE;
    return IRQ_HANDLED;
}
`
	f := mustParse(t, src)
	fn := f.Funcs()[0]
	if fn.Result.Name != "irqreturn_t" {
		t.Errorf("result type: %s", fn.Result)
	}
	if len(fn.Params) != 2 {
		t.Errorf("params: %+v", fn.Params)
	}
}

func TestParseRecoversFromErrors(t *testing.T) {
	src := `
int broken( { nonsense!!;
int good(int a) { return a; }
`
	f, err := ParseFile("bad.c", src)
	if err == nil {
		t.Fatal("expected syntax errors")
	}
	// The good function after the bad one must still be found.
	names := []string{}
	for _, fn := range f.Funcs() {
		names = append(names, fn.Name)
	}
	if !strings.Contains(strings.Join(names, ","), "good") {
		t.Errorf("recovery failed; parsed funcs: %v", names)
	}
}

func TestParseLabelsAndGotos(t *testing.T) {
	src := `
int f(int a) {
    if (a < 0)
        goto error;
    a = g(a);
error:
    return a;
}
`
	f := mustParse(t, src)
	var labels, gotos int
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BlockStmt:
			for _, st := range s.Stmts {
				walk(st)
			}
		case *ast.LabeledStmt:
			labels++
			if s.Label != "error" {
				t.Errorf("label name: %q", s.Label)
			}
			walk(s.Stmt)
		case *ast.GotoStmt:
			gotos++
		case *ast.IfStmt:
			walk(s.Then)
		}
	}
	walk(f.Funcs()[0].Body)
	if labels != 1 || gotos != 1 {
		t.Errorf("labels=%d gotos=%d, want 1 and 1", labels, gotos)
	}
}

func TestParseLabelAtEndOfBlock(t *testing.T) {
	src := `
void f(int a) {
    if (a) goto out;
    g();
out:
}
`
	f := mustParse(t, src)
	if len(f.Funcs()) != 1 {
		t.Fatal("expected one function")
	}
}

func TestParseMultipleDeclarators(t *testing.T) {
	src := `int f(void) { int a = 1, b, c = 3; return a; }`
	f := mustParse(t, src)
	fn := f.Funcs()[0]
	if len(fn.Params) != 0 {
		t.Errorf("f(void) params: %+v", fn.Params)
	}
	blk, ok := fn.Body.Stmts[0].(*ast.BlockStmt)
	if !ok {
		t.Fatalf("multi-declarator statement: %T", fn.Body.Stmts[0])
	}
	if len(blk.Stmts) != 3 {
		t.Errorf("declarators: %d, want 3", len(blk.Stmts))
	}
}

func TestParseAsmAndAssert(t *testing.T) {
	src := `
int reg_read(struct device *d, int reg) {
    if (d) {
        int ret;
        asm("read");
        ret = random();
        if (ret >= 0)
            return ret;
    }
    return -1;
}
`
	f := mustParse(t, src)
	if len(f.Funcs()) != 1 {
		t.Fatal("expected one function")
	}
}

func TestParseExternAndStatic(t *testing.T) {
	src := `
extern int pm_runtime_get_sync(struct device *dev);
static int helper(int a) { return a; }
`
	f := mustParse(t, src)
	ext := f.Decls[0].(*ast.FuncDecl)
	if !ext.Extern || ext.Body != nil {
		t.Errorf("extern: %+v", ext)
	}
	st := f.Decls[1].(*ast.FuncDecl)
	if !st.Static || st.Body == nil {
		t.Errorf("static: %+v", st)
	}
}

func TestParseCastAndSizeof(t *testing.T) {
	src := `
void f(void *p) {
    PyObject *o;
    o = (PyObject *)p;
    int n = sizeof(struct device);
    g(n, o);
}
`
	f := mustParse(t, src)
	if len(f.Funcs()) != 1 {
		t.Fatal("expected one function")
	}
}

func TestParseGlobalVar(t *testing.T) {
	src := `
int debug_level = 3;
int counter;
`
	f := mustParse(t, src)
	if len(f.Decls) != 2 {
		t.Fatalf("decls: %d", len(f.Decls))
	}
	v := f.Decls[0].(*ast.VarDecl)
	if v.Name != "debug_level" || v.Init == nil {
		t.Errorf("global: %+v", v)
	}
}

func TestParseIntLit(t *testing.T) {
	for _, tt := range []struct {
		lit  string
		want int64
	}{
		{"0", 0},
		{"7", 7},
		{"42UL", 42},
		{"012", 10},
		{"0777", 511},
		{"00", 0},
		{"0x54", 0x54},
		{"0XdeadBEEF", 0xdeadbeef},
		{"9223372036854775807", 1<<63 - 1},
		{"9223372036854775808", -1 << 63},
		{"18446744073709551615", -1},
		{"0xffffffffffffffff", -1},
		{"0xFFFFFFFFFFFFFFFFULL", -1},
		{"01777777777777777777777", -1},
		{"0x8000000000000000", -1 << 63},
		{"-1", -1},
	} {
		got, err := parseIntLit(tt.lit)
		if err != nil || got != tt.want {
			t.Errorf("parseIntLit(%q) = %d, %v; want %d", tt.lit, got, err, tt.want)
		}
	}
	for _, lit := range []string{"08", "09", "0789", "0x", "0xg", "18446744073709551616", "0x10000000000000000", "1_000"} {
		if v, err := parseIntLit(lit); err == nil {
			t.Errorf("parseIntLit(%q) = %d, want an error", lit, v)
		}
	}
}

// TestParseWideMaskLiteral pins that a driver using a U64_MAX-style mask
// parses: the literal used to fail the whole file.
func TestParseWideMaskLiteral(t *testing.T) {
	f := mustParse(t, "int f(int x) { return x & 0xffffffffffffffffULL; }\nint g(void) { return 012; }")
	ret := func(i int) *ast.IntLit {
		r := f.Decls[i].(*ast.FuncDecl).Body.Stmts[0].(*ast.ReturnStmt)
		if b, ok := r.X.(*ast.BinaryExpr); ok {
			return b.Y.(*ast.IntLit)
		}
		return r.X.(*ast.IntLit)
	}
	if v := ret(0).Value; v != -1 {
		t.Errorf("0xffffffffffffffffULL = %d, want -1", v)
	}
	if v := ret(1).Value; v != 10 {
		t.Errorf("012 = %d, want 10", v)
	}
	if _, err := ParseFile("test.c", "int f(void) { return 09; }"); err == nil || !strings.Contains(err.Error(), `bad integer literal "09"`) {
		t.Errorf("09: got %v, want a bad integer literal error", err)
	}
}

// TestParseLongStarRun pins the lookahead past a run of '*' longer than
// the parser's initial token window: looksLikeDecl must see the name and
// the ';' after all twelve stars.
func TestParseLongStarRun(t *testing.T) {
	f := mustParse(t, "void f(void) { T ************ x; y = 1; }")
	body := f.Decls[0].(*ast.FuncDecl).Body.Stmts
	d, ok := body[0].(*ast.DeclStmt)
	if !ok || d.Name != "x" || d.Type.Name != "T" || d.Type.Pointer != 12 {
		t.Fatalf("got %#v, want a declaration of x as T with 12 pointer levels", body[0])
	}
	if _, ok := body[1].(*ast.ExprStmt); !ok {
		t.Errorf("statement after the declaration: got %T", body[1])
	}
}

// TestParseParenthesizedProductIsNotCast pins that "( IDENT * ..." is a
// cast only when the stars are followed by ')': "(A * 2)" is a product,
// while "(PyObject *)p" and "(PyObject **)p" stay casts (dropped, leaving
// the operand).
func TestParseParenthesizedProductIsNotCast(t *testing.T) {
	f := mustParse(t, `
void f(void *p, int A) {
    x = (A * 2);
    y = (PyObject *)p;
    z = (PyObject **)p;
}
`)
	rhs := func(i int) ast.Expr {
		return f.Funcs()[0].Body.Stmts[i].(*ast.ExprStmt).X.(*ast.AssignExpr).RHS
	}
	be, ok := rhs(0).(*ast.BinaryExpr)
	if !ok {
		t.Fatalf("(A * 2) parsed as %T, want *ast.BinaryExpr", rhs(0))
	}
	if x, ok := be.X.(*ast.Ident); !ok || x.Name != "A" || be.Op.String() != "*" {
		t.Errorf("(A * 2) parsed as %s", ast.Print(f))
	}
	for i := 1; i <= 2; i++ {
		if id, ok := rhs(i).(*ast.Ident); !ok || id.Name != "p" {
			t.Errorf("statement %d: cast parsed as %T, want the operand p", i, rhs(i))
		}
	}
}
