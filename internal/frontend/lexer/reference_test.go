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

// Next returns next's token with the byte offset at which it starts.
func (l *refLexer) Next() token.Token {
	l.skipSpaceAndComments()
	off := l.off
	t := l.next()
	t.Off = int32(off)
	return t
}

// refToken returns a token at p, as the reference scanner built them
// when tokens carried a whole position.
func refToken(kind token.Kind, lit string, p token.Pos) token.Token {
	return token.Token{Kind: kind, Lit: lit, Line: int32(p.Line), Column: int32(p.Column)}
}

// next scans and returns the next token. At end of input it returns EOF
// tokens forever.
func (l *refLexer) next() token.Token {
	l.skipSpaceAndComments()
	p := l.pos()
	r := l.peek()
	switch {
	case r == -1:
		return refToken(token.EOF, "", p)
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
			return refToken(k2, "", p)
		}
		return refToken(k1, "", p)
	}
	switch r {
	case '=':
		return two('=', token.EQ, token.ASSIGN)
	case '!':
		return two('=', token.NE, token.NOT)
	case '<':
		if l.peek() == '<' {
			l.advance()
			return refToken(token.SHL, "", p)
		}
		return two('=', token.LE, token.LT)
	case '>':
		if l.peek() == '>' {
			l.advance()
			return refToken(token.SHR, "", p)
		}
		return two('=', token.GE, token.GT)
	case '&':
		return two('&', token.LAND, token.AMP)
	case '|':
		return two('|', token.LOR, token.PIPE)
	case '+':
		if l.peek() == '+' {
			l.advance()
			return refToken(token.PLUSPLUS, "", p)
		}
		return two('=', token.PLUSASSIGN, token.PLUS)
	case '-':
		if l.peek() == '-' {
			l.advance()
			return refToken(token.MINUSMINUS, "", p)
		}
		if l.peek() == '>' {
			l.advance()
			return refToken(token.ARROW, "", p)
		}
		return two('=', token.MINUSASSIGN, token.MINUS)
	case '*':
		return refToken(token.STAR, "", p)
	case '/':
		return refToken(token.SLASH, "", p)
	case '%':
		return refToken(token.PERCENT, "", p)
	case '^':
		return refToken(token.CARET, "", p)
	case '~':
		return refToken(token.TILDE, "", p)
	case '.':
		return refToken(token.DOT, "", p)
	case ',':
		return refToken(token.COMMA, "", p)
	case ';':
		return refToken(token.SEMI, "", p)
	case ':':
		return refToken(token.COLON, "", p)
	case '(':
		return refToken(token.LPAREN, "", p)
	case ')':
		return refToken(token.RPAREN, "", p)
	case '{':
		return refToken(token.LBRACE, "", p)
	case '}':
		return refToken(token.RBRACE, "", p)
	case '[':
		return refToken(token.LBRACK, "", p)
	case ']':
		return refToken(token.RBRACK, "", p)
	}
	l.errorf(p, "unexpected character %q", r)
	return refToken(token.ILLEGAL, string(r), p)
}

func (l *refLexer) scanIdent(p token.Pos) token.Token {
	start := l.off
	for refIsIdentPart(l.peek()) {
		l.advance()
	}
	lit := l.src[start:l.off]
	if k, ok := refKeywords[lit]; ok {
		return refToken(k, lit, p)
	}
	return refToken(token.IDENT, lit, p)
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
	return refToken(token.INT, l.src[start:l.off], p)
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
			return refToken(token.ILLEGAL, l.src[start:l.off], p)
		}
		if r == '\\' {
			l.advance()
			l.advance()
			continue
		}
		if r == '"' {
			lit := l.src[start:l.off]
			l.advance()
			return refToken(token.STRING, lit, p)
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
	return refToken(token.INT, fmt.Sprintf("%d", r), p)
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
