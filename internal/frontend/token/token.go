// Package token defines the lexical tokens of the mini-C source language
// accepted by the RID frontend, together with source positions.
//
// The language is a small C subset sufficient to express the programs the
// RID paper analyzes: function definitions, extern declarations, struct
// pointer types, integer locals, control flow (if/else, while, for,
// goto/label), assertions, calls, field accesses and linear comparisons.
package token

import (
	"fmt"
	"strconv"
)

// Kind identifies the lexical class of a token.
type Kind int32

// Token kinds. The zero value is ILLEGAL so that an uninitialized token is
// never mistaken for a valid one.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	// Literals and identifiers.
	IDENT  // foo, dev, pm_runtime_get_sync
	INT    // 12345, 0x54
	STRING // "..." (accepted and ignored in asm/attribute positions)

	// Operators and delimiters.
	ASSIGN  // =
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	AMP     // &
	PIPE    // |
	CARET   // ^
	SHL     // <<
	SHR     // >>
	NOT     // !
	TILDE   // ~

	EQ // ==
	NE // !=
	LT // <
	LE // <=
	GT // >
	GE // >=

	LAND // &&
	LOR  // ||

	ARROW  // ->
	DOT    // .
	COMMA  // ,
	SEMI   // ;
	COLON  // :
	LPAREN // (
	RPAREN // )
	LBRACE // {
	RBRACE // }
	LBRACK // [
	RBRACK // ]

	PLUSPLUS    // ++
	MINUSMINUS  // --
	PLUSASSIGN  // +=
	MINUSASSIGN // -=

	// Keywords.
	KwInt
	KwLong
	KwChar
	KwVoid
	KwBool
	KwStruct
	KwIf
	KwElse
	KwWhile
	KwFor
	KwDo
	KwGoto
	KwReturn
	KwBreak
	KwContinue
	KwExtern
	KwStatic
	KwConst
	KwUnsigned
	KwNull
	KwTrue
	KwFalse
	KwAssert
	KwRandom
	KwAsm
	KwSizeof
	KwSwitch
	KwCase
	KwDefault
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", COMMENT: "COMMENT",
	IDENT: "IDENT", INT: "INT", STRING: "STRING",
	ASSIGN: "=", PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	AMP: "&", PIPE: "|", CARET: "^", SHL: "<<", SHR: ">>", NOT: "!", TILDE: "~",
	EQ: "==", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">=",
	LAND: "&&", LOR: "||",
	ARROW: "->", DOT: ".", COMMA: ",", SEMI: ";", COLON: ":",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[", RBRACK: "]",
	PLUSPLUS: "++", MINUSMINUS: "--", PLUSASSIGN: "+=", MINUSASSIGN: "-=",
	KwInt: "int", KwLong: "long", KwChar: "char", KwVoid: "void", KwBool: "bool",
	KwStruct: "struct", KwIf: "if", KwElse: "else", KwWhile: "while",
	KwFor: "for", KwDo: "do", KwGoto: "goto", KwReturn: "return",
	KwBreak: "break", KwContinue: "continue", KwExtern: "extern",
	KwStatic: "static", KwConst: "const", KwUnsigned: "unsigned",
	KwNull: "NULL", KwTrue: "true", KwFalse: "false",
	KwAssert: "assert", KwRandom: "random", KwAsm: "asm", KwSizeof: "sizeof",
	KwSwitch: "switch", KwCase: "case", KwDefault: "default",
}

// String returns a human-readable name for the kind: the literal spelling
// for operators and keywords, the class name for variable-content tokens.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Lookup returns the keyword kind spelled lit, and false when lit is an
// identifier. NULL is uppercase as in C, and __asm__ spells asm.
func Lookup(lit string) (Kind, bool) {
	switch lit {
	case "int":
		return KwInt, true
	case "long":
		return KwLong, true
	case "char":
		return KwChar, true
	case "void":
		return KwVoid, true
	case "bool":
		return KwBool, true
	case "struct":
		return KwStruct, true
	case "if":
		return KwIf, true
	case "else":
		return KwElse, true
	case "while":
		return KwWhile, true
	case "for":
		return KwFor, true
	case "do":
		return KwDo, true
	case "goto":
		return KwGoto, true
	case "return":
		return KwReturn, true
	case "break":
		return KwBreak, true
	case "continue":
		return KwContinue, true
	case "extern":
		return KwExtern, true
	case "static":
		return KwStatic, true
	case "const":
		return KwConst, true
	case "unsigned":
		return KwUnsigned, true
	case "NULL":
		return KwNull, true
	case "true":
		return KwTrue, true
	case "false":
		return KwFalse, true
	case "assert":
		return KwAssert, true
	case "random":
		return KwRandom, true
	case "asm", "__asm__":
		return KwAsm, true
	case "sizeof":
		return KwSizeof, true
	case "switch":
		return KwSwitch, true
	case "case":
		return KwCase, true
	case "default":
		return KwDefault, true
	}
	return IDENT, false
}

// Pos is a position in a source file. Line and Column are 1-based; a zero
// Pos means "no position".
type Pos struct {
	File   string
	Line   int
	Column int
}

// IsValid reports whether the position carries real location information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders the position as file:line:column, omitting empty parts.
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return string(p.AppendText(make([]byte, 0, len(p.File)+16)))
}

// AppendText appends the String form of p to dst and returns the extended
// slice.
func (p Pos) AppendText(dst []byte) []byte {
	if !p.IsValid() {
		return append(dst, '-')
	}
	if p.File != "" {
		dst = append(dst, p.File...)
		dst = append(dst, ':')
	}
	dst = strconv.AppendInt(dst, int64(p.Line), 10)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, int64(p.Column), 10)
}

// Token is a single lexical token with its place in the source and, for
// variable-content kinds (IDENT, INT, STRING, COMMENT), its literal text.
// It carries no file name, which its scanner knows; Pos adds one. Lines,
// columns (counted in runes) and byte offsets are int32, which keeps a
// token at 32 bytes and limits a source to 2 GiB.
type Token struct {
	Kind   Kind
	Line   int32
	Column int32
	Off    int32 // byte offset of the token's first byte
	Lit    string
}

// Pos returns the token's position in the named file.
func (t Token) Pos(file string) Pos {
	return Pos{File: file, Line: int(t.Line), Column: int(t.Column)}
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, STRING, COMMENT, ILLEGAL:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}

// IsComparison reports whether the kind is one of the six relational
// operators that the Figure-3 abstraction preserves as predicates.
func (k Kind) IsComparison() bool {
	switch k {
	case EQ, NE, LT, LE, GT, GE:
		return true
	}
	return false
}

// IsTypeKeyword reports whether the kind can begin a type specifier.
func (k Kind) IsTypeKeyword() bool {
	switch k {
	case KwInt, KwLong, KwChar, KwVoid, KwBool, KwStruct, KwConst, KwUnsigned, KwStatic, KwExtern:
		return true
	}
	return false
}
