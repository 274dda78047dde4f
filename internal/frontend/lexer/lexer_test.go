package lexer

import (
	"testing"

	"repro/internal/frontend/token"
)

func kinds(ts []token.Token) []token.Kind {
	out := make([]token.Kind, len(ts))
	for i, t := range ts {
		out[i] = t.Kind
	}
	return out
}

func TestScanOperators(t *testing.T) {
	tests := []struct {
		src  string
		want []token.Kind
	}{
		{"= == != < <= > >=", []token.Kind{token.ASSIGN, token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE, token.EOF}},
		{"&& || & |", []token.Kind{token.LAND, token.LOR, token.AMP, token.PIPE, token.EOF}},
		{"-> - -- -=", []token.Kind{token.ARROW, token.MINUS, token.MINUSMINUS, token.MINUSASSIGN, token.EOF}},
		{"+ ++ +=", []token.Kind{token.PLUS, token.PLUSPLUS, token.PLUSASSIGN, token.EOF}},
		{"<< >> ^ ~ %", []token.Kind{token.SHL, token.SHR, token.CARET, token.TILDE, token.PERCENT, token.EOF}},
		{"( ) { } [ ] ; : , .", []token.Kind{token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE, token.LBRACK, token.RBRACK, token.SEMI, token.COLON, token.COMMA, token.DOT, token.EOF}},
	}
	for _, tt := range tests {
		got := kinds(New("t.c", tt.src).All())
		if len(got) != len(tt.want) {
			t.Fatalf("%q: got %v, want %v", tt.src, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("%q token %d: got %s, want %s", tt.src, i, got[i], tt.want[i])
			}
		}
	}
}

func TestScanKeywordsAndIdents(t *testing.T) {
	l := New("t.c", "int foo struct device NULL return goto assert random")
	ts := l.All()
	want := []token.Kind{token.KwInt, token.IDENT, token.KwStruct, token.IDENT,
		token.KwNull, token.KwReturn, token.KwGoto, token.KwAssert, token.KwRandom, token.EOF}
	got := kinds(ts)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
	if ts[1].Lit != "foo" || ts[3].Lit != "device" {
		t.Errorf("ident literals wrong: %q %q", ts[1].Lit, ts[3].Lit)
	}
}

func TestScanNumbers(t *testing.T) {
	tests := []struct {
		src, lit string
	}{
		{"12345", "12345"},
		{"0x54", "0x54"},
		{"0xDEADbeef", "0xDEADbeef"},
		{"42UL", "42UL"},
		{"0", "0"},
	}
	for _, tt := range tests {
		ts := New("t.c", tt.src).All()
		if ts[0].Kind != token.INT || ts[0].Lit != tt.lit {
			t.Errorf("%q: got %v", tt.src, ts[0])
		}
	}
}

func TestScanCharLiteral(t *testing.T) {
	ts := New("t.c", "'a' '\\n' '\\0'").All()
	if ts[0].Kind != token.INT || ts[0].Lit != "97" {
		t.Errorf("'a': got %v", ts[0])
	}
	if ts[1].Lit != "10" {
		t.Errorf("'\\n': got %v", ts[1])
	}
	if ts[2].Lit != "0" {
		t.Errorf("'\\0': got %v", ts[2])
	}
}

func TestScanString(t *testing.T) {
	ts := New("t.c", `asm("mov eax, ebx")`).All()
	if ts[0].Kind != token.KwAsm {
		t.Fatalf("asm keyword: got %v", ts[0])
	}
	if ts[2].Kind != token.STRING || ts[2].Lit != "mov eax, ebx" {
		t.Errorf("string: got %v", ts[2])
	}
}

func TestCommentsAndPreprocessor(t *testing.T) {
	src := `// line comment
#include <linux/pm_runtime.h>
/* block
   comment */ int x;
`
	ts := New("t.c", src).All()
	want := []token.Kind{token.KwInt, token.IDENT, token.SEMI, token.EOF}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	src := "int\nfoo;"
	ts := New("f.c", src).All()
	if ts[0].Line != 1 || ts[0].Column != 1 {
		t.Errorf("int pos: %v", ts[0].Pos("f.c"))
	}
	if ts[1].Line != 2 || ts[1].Column != 1 {
		t.Errorf("foo pos: %v", ts[1].Pos("f.c"))
	}
	if got := ts[1].Pos("f.c").String(); got != "f.c:2:1" {
		t.Errorf("foo pos in f.c: %q", got)
	}
}

func TestUnterminatedComment(t *testing.T) {
	l := New("t.c", "/* never closed")
	l.All()
	if len(l.Errors()) == 0 {
		t.Error("expected error for unterminated comment")
	}
}

func TestUnterminatedString(t *testing.T) {
	l := New("t.c", `"abc`)
	l.All()
	if len(l.Errors()) == 0 {
		t.Error("expected error for unterminated string")
	}
}

func TestIllegalRune(t *testing.T) {
	l := New("t.c", "int @ x;")
	ts := l.All()
	found := false
	for _, tk := range ts {
		if tk.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found || len(l.Errors()) == 0 {
		t.Error("expected ILLEGAL token and error for @")
	}
}

func TestEOFForever(t *testing.T) {
	l := New("t.c", "x")
	l.Next()
	for i := 0; i < 3; i++ {
		if got := l.Next(); got.Kind != token.EOF {
			t.Fatalf("call %d after end: got %v, want EOF", i, got)
		}
	}
}

func TestByteOrderMark(t *testing.T) {
	l := New("x.c", "\uFEFFint x;\n#define Y\n")
	ts := l.All()
	if errs := l.Errors(); len(errs) != 0 {
		t.Fatalf("errors on a leading byte-order mark: %v", errs)
	}
	want := []token.Kind{token.KwInt, token.IDENT, token.SEMI, token.EOF}
	if got := kinds(ts); len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if p := ts[0].Pos(""); p.Line != 1 || p.Column != 1 {
		t.Errorf("first token at %v, want 1:1", p)
	}
	// Only a mark at offset 0 is skipped; one anywhere else is a stray
	// character.
	l = New("x.c", "int \uFEFFx;")
	l.All()
	if errs := l.Errors(); len(errs) != 1 || errs[0].Error() != `x.c:1:5: unexpected character '\ufeff'` {
		t.Errorf("mid-file byte-order mark: %v", errs)
	}
	// A directive on the first line still counts as at the line start.
	l = New("x.c", "\uFEFF#include <a.h>\nint x;")
	if ts := l.All(); len(l.Errors()) != 0 || ts[0].Kind != token.KwInt || ts[0].Line != 2 {
		t.Errorf("directive after a byte-order mark: %v %v", ts, l.Errors())
	}
}

func TestIndentedDirective(t *testing.T) {
	src := "int f(void) {\n\t#ifdef X\n  \t # define Y 1\n\treturn 0;\n#endif\n}\n"
	l := New("x.c", src)
	ts := l.All()
	if errs := l.Errors(); len(errs) != 0 {
		t.Fatalf("errors on indented directives: %v", errs)
	}
	want := []token.Kind{token.KwInt, token.IDENT, token.LPAREN, token.KwVoid, token.RPAREN,
		token.LBRACE, token.KwReturn, token.INT, token.SEMI, token.RBRACE, token.EOF}
	got := kinds(ts)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
	if p := ts[6].Pos(""); p.Line != 4 || p.Column != 2 {
		t.Errorf("return at %v, want 4:2", p)
	}
	// A '#' after anything but blanks is still a stray character.
	l = New("x.c", "x; #define Y\n")
	l.All()
	if errs := l.Errors(); len(errs) == 0 || errs[0].Error() != `x.c:1:4: unexpected character '#'` {
		t.Errorf("mid-line '#': %v", errs)
	}
}

// TestPositionsCountRunes pins that columns count runes, not bytes, across
// identifiers, comments and strings holding multi-byte and invalid UTF-8.
func TestPositionsCountRunes(t *testing.T) {
	src := "/* é\xff */ x // ü\n\"ä\" é1 y"
	ts := New("x.c", src).All()
	want := []struct {
		kind      token.Kind
		lit       string
		line, col int
	}{
		{token.IDENT, "x", 1, 10},
		{token.STRING, "ä", 2, 1},
		{token.IDENT, "é1", 2, 5},
		{token.IDENT, "y", 2, 8},
		{token.EOF, "", 2, 9},
	}
	if len(ts) != len(want) {
		t.Fatalf("got %v", ts)
	}
	for i, w := range want {
		if ts[i].Kind != w.kind || ts[i].Lit != w.lit || int(ts[i].Line) != w.line || int(ts[i].Column) != w.col {
			t.Errorf("token %d: got %v at %v, want %s %q at %d:%d", i, ts[i], ts[i].Pos(""), w.kind, w.lit, w.line, w.col)
		}
	}
}

// TestNewAtResumes: a lexer moved with Seek to the offset and position
// of any token yields the rest of the stream a lexer from New yields,
// positions and offsets included, past a byte-order mark, multi-byte
// runes and a directive line.
func TestNewAtResumes(t *testing.T) {
	src := bom + "int é(void) { /* ∑ */ return g(1);\n#define X\n\t}  x"
	l := New("t.c", src)
	var toks []token.Token
	for {
		tok := l.Next()
		toks = append(toks, tok)
		if tok.Kind == token.EOF {
			break
		}
	}
	for i, tok := range toks {
		r := New("t.c", src)
		r.Seek(int(tok.Off), int(tok.Line), int(tok.Column))
		for j, want := range toks[i:] {
			if got := r.Next(); got != want {
				t.Fatalf("from token %d: token %d is %v at %v offset %d, want %v at %v offset %d",
					i, i+j, got, got.Pos("t.c"), got.Off, want, want.Pos("t.c"), want.Off)
			}
		}
	}
}
