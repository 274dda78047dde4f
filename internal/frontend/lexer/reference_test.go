package lexer

// This file keeps, verbatim but renamed so it compiles beside Lexer, the
// rune-by-rune scanner the frontend used before the byte-level one. It is
// the oracle of FuzzLexerMatchesReference: Lexer must produce the same
// tokens and the same errors on every input except the two it accepts on
// purpose (a leading byte-order mark and an indented '#'). Do not edit it
// to follow later lexer changes.

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"repro/internal/frontend/token"
)

// refLexer scans a single source buffer. It is not safe for concurrent use.
type refLexer struct {
	file   string
	src    string
	off    int // byte offset of the next rune
	line   int
	col    int
	errors []error
}

// newRef returns a reference lexer over src; file is used in positions only.
func newRef(file, src string) *refLexer {
	return &refLexer{file: file, src: src, line: 1, col: 1}
}

// Errors returns the scan errors encountered so far, in order.
func (l *refLexer) Errors() []error { return l.errors }

func (l *refLexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Column: l.col}
}

func (l *refLexer) errorf(p token.Pos, format string, args ...any) {
	l.errors = append(l.errors, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

// peek returns the next rune without consuming it, or -1 at EOF.
func (l *refLexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

// peek2 returns the rune after the next one, or -1.
func (l *refLexer) peek2() rune {
	if l.off >= len(l.src) {
		return -1
	}
	_, w := utf8.DecodeRuneInString(l.src[l.off:])
	if l.off+w >= len(l.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+w:])
	return r
}

func (l *refLexer) advance() rune {
	if l.off >= len(l.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func refIsIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func refIsIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// skipSpaceAndComments consumes whitespace, // and /* */ comments, and
// preprocessor-style lines (# ...), which the frontend treats as blank.
func (l *refLexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			l.advance()
		case r == '#' && l.col == 1:
			for l.peek() != '\n' && l.peek() != -1 {
				l.advance()
			}
		case r == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != -1 {
				l.advance()
			}
		case r == '/' && l.peek2() == '*':
			p := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != -1 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(p, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token. At end of input it returns EOF
// tokens forever.
func (l *refLexer) Next() token.Token {
	l.skipSpaceAndComments()
	p := l.pos()
	r := l.peek()
	switch {
	case r == -1:
		return token.Token{Kind: token.EOF, Pos: p}
	case refIsIdentStart(r):
		return l.scanIdent(p)
	case unicode.IsDigit(r):
		return l.scanNumber(p)
	case r == '"':
		return l.scanString(p)
	case r == '\'':
		return l.scanChar(p)
	}
	l.advance()
	two := func(next rune, k2, k1 token.Kind) token.Token {
		if l.peek() == next {
			l.advance()
			return token.Token{Kind: k2, Pos: p}
		}
		return token.Token{Kind: k1, Pos: p}
	}
	switch r {
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		return two('=', token.NE, token.NOT)
	case '<':
		if l.peek() == '<' {
			l.advance()
			return token.Token{Kind: token.SHL, Pos: p}
		}
		return two('=', token.LE, token.LT)
	case '>':
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.SHR, Pos: p}
		}
		return two('=', token.GE, token.GT)
	case '&':
		return two('&', token.LAND, token.AMP)
	case '|':
		return two('|', token.LOR, token.PIPE)
	case '+':
		if l.peek() == '+' {
			l.advance()
			return token.Token{Kind: token.PLUSPLUS, Pos: p}
		}
		return two('=', token.PLUSASSIGN, token.PLUS)
	case '-':
		if l.peek() == '-' {
			l.advance()
			return token.Token{Kind: token.MINUSMINUS, Pos: p}
		}
		if l.peek() == '>' {
			l.advance()
			return token.Token{Kind: token.ARROW, Pos: p}
		}
		return two('=', token.MINUSASSIGN, token.MINUS)
	case '*':
		return token.Token{Kind: token.STAR, Pos: p}
	case '/':
		return token.Token{Kind: token.SLASH, Pos: p}
	case '%':
		return token.Token{Kind: token.PERCENT, Pos: p}
	case '^':
		return token.Token{Kind: token.CARET, Pos: p}
	case '~':
		return token.Token{Kind: token.TILDE, Pos: p}
	case '.':
		return token.Token{Kind: token.DOT, Pos: p}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: p}
	case ';':
		return token.Token{Kind: token.SEMI, Pos: p}
	case ':':
		return token.Token{Kind: token.COLON, Pos: p}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: p}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: p}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: p}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: p}
	case '[':
		return token.Token{Kind: token.LBRACK, Pos: p}
	case ']':
		return token.Token{Kind: token.RBRACK, Pos: p}
	}
	l.errorf(p, "unexpected character %q", r)
	return token.Token{Kind: token.ILLEGAL, Lit: string(r), Pos: p}
}

func (l *refLexer) scanIdent(p token.Pos) token.Token {
	start := l.off
	for refIsIdentPart(l.peek()) {
		l.advance()
	}
	lit := l.src[start:l.off]
	if k, ok := refKeywords[lit]; ok {
		return token.Token{Kind: k, Lit: lit, Pos: p}
	}
	return token.Token{Kind: token.IDENT, Lit: lit, Pos: p}
}

func (l *refLexer) scanNumber(p token.Pos) token.Token {
	start := l.off
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for refIsHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	// Swallow integer suffixes (U, L, UL, LL...) so kernel-style literals lex.
	for l.peek() == 'u' || l.peek() == 'U' || l.peek() == 'l' || l.peek() == 'L' {
		l.advance()
	}
	return token.Token{Kind: token.INT, Lit: l.src[start:l.off], Pos: p}
}

func refIsHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

func (l *refLexer) scanString(p token.Pos) token.Token {
	l.advance() // opening quote
	start := l.off
	for {
		r := l.peek()
		if r == -1 || r == '\n' {
			l.errorf(p, "unterminated string literal")
			return token.Token{Kind: token.ILLEGAL, Lit: l.src[start:l.off], Pos: p}
		}
		if r == '\\' {
			l.advance()
			l.advance()
			continue
		}
		if r == '"' {
			lit := l.src[start:l.off]
			l.advance()
			return token.Token{Kind: token.STRING, Lit: lit, Pos: p}
		}
		l.advance()
	}
}

// scanChar scans a character literal and yields it as an INT token holding
// the code point value, matching C semantics closely enough for branches.
func (l *refLexer) scanChar(p token.Pos) token.Token {
	l.advance() // opening quote
	r := l.advance()
	if r == '\\' {
		esc := l.advance()
		switch esc {
		case 'n':
			r = '\n'
		case 't':
			r = '\t'
		case '0':
			r = 0
		case '\\', '\'':
			r = esc
		default:
			r = esc
		}
	}
	if l.peek() == '\'' {
		l.advance()
	} else {
		l.errorf(p, "unterminated character literal")
	}
	return token.Token{Kind: token.INT, Lit: fmt.Sprintf("%d", r), Pos: p}
}

// All scans the entire input and returns every token up to and including
// the first EOF. It is a convenience for tests and tools.
func (l *refLexer) All() []token.Token {
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}

// refKeywords maps keyword spellings to their kinds. NULL is uppercase as in C.
var refKeywords = map[string]token.Kind{
	"int": token.KwInt, "long": token.KwLong, "char": token.KwChar, "void": token.KwVoid,
	"bool": token.KwBool, "struct": token.KwStruct, "if": token.KwIf, "else": token.KwElse,
	"while": token.KwWhile, "for": token.KwFor, "do": token.KwDo, "goto": token.KwGoto,
	"return": token.KwReturn, "break": token.KwBreak, "continue": token.KwContinue,
	"extern": token.KwExtern, "static": token.KwStatic, "const": token.KwConst,
	"unsigned": token.KwUnsigned, "NULL": token.KwNull, "true": token.KwTrue, "false": token.KwFalse,
	"assert": token.KwAssert, "random": token.KwRandom, "asm": token.KwAsm,
	"__asm__": token.KwAsm, "sizeof": token.KwSizeof,
	"switch": token.KwSwitch, "case": token.KwCase, "default": token.KwDefault,
}
