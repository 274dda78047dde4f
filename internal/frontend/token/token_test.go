package token

import "testing"

func TestKindString(t *testing.T) {
	tests := map[Kind]string{
		EQ:       "==",
		ARROW:    "->",
		KwStruct: "struct",
		KwNull:   "NULL",
		IDENT:    "IDENT",
		EOF:      "EOF",
	}
	for k, want := range tests {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind: %q", got)
	}
}

func TestKeywordsRoundTrip(t *testing.T) {
	for k := KwInt; k <= KwDefault; k++ {
		if got, ok := Lookup(k.String()); !ok || got != k {
			t.Errorf("Lookup(%q) = %s, %v; want %s", k.String(), got, ok, k)
		}
	}
	if got, ok := Lookup("__asm__"); !ok || got != KwAsm {
		t.Errorf("Lookup(__asm__) = %s, %v; want asm", got, ok)
	}
	for _, id := range []string{"", "x", "Int", "null", "asm_", "__asm", "integer", "continues"} {
		if got, ok := Lookup(id); ok || got != IDENT {
			t.Errorf("Lookup(%q) = %s, %v; want IDENT, false", id, got, ok)
		}
	}
}

func TestIsComparison(t *testing.T) {
	for _, k := range []Kind{EQ, NE, LT, LE, GT, GE} {
		if !k.IsComparison() {
			t.Errorf("%s must be a comparison", k)
		}
	}
	for _, k := range []Kind{ASSIGN, LAND, PLUS, IDENT} {
		if k.IsComparison() {
			t.Errorf("%s must not be a comparison", k)
		}
	}
}

func TestIsTypeKeyword(t *testing.T) {
	for _, k := range []Kind{KwInt, KwVoid, KwStruct, KwConst, KwStatic, KwExtern} {
		if !k.IsTypeKeyword() {
			t.Errorf("%s must start a type", k)
		}
	}
	if IDENT.IsTypeKeyword() || KwReturn.IsTypeKeyword() {
		t.Error("non-type keywords misclassified")
	}
}

func TestPos(t *testing.T) {
	var zero Pos
	if zero.IsValid() || zero.String() != "-" {
		t.Errorf("zero pos: %q", zero.String())
	}
	p := Pos{File: "a.c", Line: 3, Column: 7}
	if !p.IsValid() || p.String() != "a.c:3:7" {
		t.Errorf("pos: %q", p.String())
	}
	q := Pos{Line: 2, Column: 1}
	if q.String() != "2:1" {
		t.Errorf("file-less pos: %q", q.String())
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IDENT, Lit: "dev"}
	if tok.String() != `IDENT("dev")` {
		t.Errorf("token: %q", tok.String())
	}
	op := Token{Kind: ARROW}
	if op.String() != "->" {
		t.Errorf("operator token: %q", op.String())
	}
}
