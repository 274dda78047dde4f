// Package lexer implements a hand-written scanner for the mini-C source
// language. It produces the token stream consumed by the parser and keeps
// accurate line/column positions for diagnostics and bug reports.
package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/frontend/token"
)

// Lexer scans a single source buffer. It is not safe for concurrent use.
//
// The scan works on bytes: ASCII, which is all of the language's syntax,
// never goes through a UTF-8 decoder, and a byte >= 0x80 is decoded only
// where it occurs. Columns count runes, as they always have.
type Lexer struct {
	file   string
	src    string
	off    int // byte offset of the next rune
	start  int // offset of the first byte after a leading byte-order mark
	line   int
	col    int
	errors []error
}

// bom is the UTF-8 byte-order mark some editors write at the start of a file.
const bom = "\uFEFF"

// New returns a lexer over src; file is used in error positions only. A
// leading byte-order mark is skipped, so the first token is still at 1:1.
func New(file, src string) *Lexer {
	l := new(Lexer)
	l.Reset(file, src)
	return l
}

// Reset makes l the lexer New(file, src) returns, in l's own memory.
func (l *Lexer) Reset(file, src string) {
	*l = Lexer{file: file, src: src, line: 1, col: 1}
	if strings.HasPrefix(src, bom) {
		l.off, l.start = len(bom), len(bom)
	}
}

// Seek moves the scan to byte offset off, which lies at line:col (columns
// count runes). The lexer then yields the tokens a lexer from New yields
// from that point on, with the same positions.
func (l *Lexer) Seek(off, line, col int) {
	l.off, l.line, l.col = off, line, col
}

// Stop ends the scan: Next returns EOF from here on.
func (l *Lexer) Stop() { l.off = len(l.src) }

// Errors returns the scan errors encountered so far, in order.
func (l *Lexer) Errors() []error { return l.errors }

func (l *Lexer) errorf(t *token.Token, format string, args ...any) {
	l.errors = append(l.errors, fmt.Errorf("%s: %s", t.Pos(l.file), fmt.Sprintf(format, args...)))
}

// at returns a token of no kind yet at the scan position.
func (l *Lexer) at() token.Token {
	return token.Token{Line: int32(l.line), Column: int32(l.col), Off: int32(l.off)}
}

// peek returns the next rune without consuming it, or -1 at EOF.
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func (l *Lexer) advance() rune {
	if l.off >= len(l.src) {
		return -1
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		l.off++
		if c == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		return rune(c)
	}
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += w
	l.col++
	return r
}

// match consumes the next byte if it is c, which must be ASCII other than
// a newline.
func (l *Lexer) match(c byte) bool {
	if l.off < len(l.src) && l.src[l.off] == c {
		l.off++
		l.col++
		return true
	}
	return false
}

// skipTo moves the scan position forward to byte offset end, counting the
// lines and runes it passes over.
func (l *Lexer) skipTo(end int) {
	seg := l.src[l.off:end]
	if i := strings.LastIndexByte(seg, '\n'); i >= 0 {
		l.line += strings.Count(seg, "\n")
		l.col = 1 + utf8.RuneCountInString(seg[i+1:])
	} else {
		l.col += utf8.RuneCountInString(seg)
	}
	l.off = end
}

// skipLine moves the scan position to the end of the current line, before
// its newline.
func (l *Lexer) skipLine() {
	if i := strings.IndexByte(l.src[l.off:], '\n'); i >= 0 {
		l.skipTo(l.off + i)
	} else {
		l.skipTo(len(l.src))
	}
}

// atLineStart reports whether only blanks precede the scan position on its
// line.
func (l *Lexer) atLineStart() bool {
	for i := l.off - 1; i >= l.start; i-- {
		switch l.src[i] {
		case ' ', '\t':
		case '\n':
			return true
		default:
			return false
		}
	}
	return true
}

func isIdentByte(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// skipSpaceAndComments consumes whitespace, // and /* */ comments, and
// preprocessor-style lines (# after nothing but blanks), which the frontend
// treats as blank.
func (l *Lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		switch l.src[l.off] {
		case ' ', '\t', '\r':
			l.off++
			l.col++
		case '\n':
			l.off++
			l.line++
			l.col = 1
		case '#':
			if !l.atLineStart() {
				return
			}
			l.skipLine()
		case '/':
			if l.off+1 == len(l.src) {
				return
			}
			switch l.src[l.off+1] {
			case '/':
				l.skipLine()
			case '*':
				t := l.at()
				if i := strings.Index(l.src[l.off+2:], "*/"); i >= 0 {
					l.skipTo(l.off + 2 + i + 2)
				} else {
					l.skipTo(len(l.src))
					l.errorf(&t, "unterminated block comment")
				}
			default:
				return
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token. At end of input it returns EOF
// tokens forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	t := l.at()
	if l.off >= len(l.src) {
		t.Kind = token.EOF
		return t
	}
	c := l.src[l.off]
	if c >= utf8.RuneSelf {
		r, w := utf8.DecodeRuneInString(l.src[l.off:])
		switch {
		case unicode.IsLetter(r):
			return l.scanIdent(t)
		case unicode.IsDigit(r):
			return l.scanNumber(t)
		}
		l.off += w
		l.col++
		l.errorf(&t, "unexpected character %q", r)
		t.Kind, t.Lit = token.ILLEGAL, string(r)
		return t
	}
	switch {
	case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		return l.scanIdent(t)
	case '0' <= c && c <= '9':
		return l.scanNumber(t)
	case c == '"':
		return l.scanString(t)
	case c == '\'':
		return l.scanChar(t)
	}
	// c is an ASCII byte other than a newline, which skipSpaceAndComments
	// has consumed.
	l.off++
	l.col++
	two := func(next byte, k2, k1 token.Kind) token.Kind {
		if l.match(next) {
			return k2
		}
		return k1
	}
	switch c {
	case '=':
		t.Kind = two('=', token.EQ, token.ASSIGN)
	case '!':
		t.Kind = two('=', token.NE, token.NOT)
	case '<':
		if t.Kind = token.SHL; !l.match('<') {
			t.Kind = two('=', token.LE, token.LT)
		}
	case '>':
		if t.Kind = token.SHR; !l.match('>') {
			t.Kind = two('=', token.GE, token.GT)
		}
	case '&':
		t.Kind = two('&', token.LAND, token.AMP)
	case '|':
		t.Kind = two('|', token.LOR, token.PIPE)
	case '+':
		if t.Kind = token.PLUSPLUS; !l.match('+') {
			t.Kind = two('=', token.PLUSASSIGN, token.PLUS)
		}
	case '-':
		switch {
		case l.match('-'):
			t.Kind = token.MINUSMINUS
		case l.match('>'):
			t.Kind = token.ARROW
		default:
			t.Kind = two('=', token.MINUSASSIGN, token.MINUS)
		}
	case '*':
		t.Kind = token.STAR
	case '/':
		t.Kind = token.SLASH
	case '%':
		t.Kind = token.PERCENT
	case '^':
		t.Kind = token.CARET
	case '~':
		t.Kind = token.TILDE
	case '.':
		t.Kind = token.DOT
	case ',':
		t.Kind = token.COMMA
	case ';':
		t.Kind = token.SEMI
	case ':':
		t.Kind = token.COLON
	case '(':
		t.Kind = token.LPAREN
	case ')':
		t.Kind = token.RPAREN
	case '{':
		t.Kind = token.LBRACE
	case '}':
		t.Kind = token.RBRACE
	case '[':
		t.Kind = token.LBRACK
	case ']':
		t.Kind = token.RBRACK
	default:
		l.errorf(&t, "unexpected character %q", rune(c))
		t.Kind, t.Lit = token.ILLEGAL, string(rune(c))
	}
	return t
}

func (l *Lexer) scanIdent(t token.Token) token.Token {
	start := l.off
	for l.off < len(l.src) {
		if c := l.src[l.off]; c < utf8.RuneSelf {
			if !isIdentByte(c) {
				break
			}
			l.off++
		} else {
			r, w := utf8.DecodeRuneInString(l.src[l.off:])
			if !isIdentPart(r) {
				break
			}
			l.off += w
		}
		l.col++
	}
	t.Lit = l.src[start:l.off]
	t.Kind, _ = token.Lookup(t.Lit)
	return t
}

func (l *Lexer) scanNumber(t token.Token) token.Token {
	start := l.off
	hex := strings.HasPrefix(l.src[l.off:], "0x") || strings.HasPrefix(l.src[l.off:], "0X")
	if hex {
		l.off += 2
		l.col += 2
	}
	l.scanDigits(hex)
	// Swallow integer suffixes (U, L, UL, LL...) so kernel-style literals lex.
	for l.off < len(l.src) && strings.IndexByte("uUlL", l.src[l.off]) >= 0 {
		l.off++
		l.col++
	}
	t.Kind, t.Lit = token.INT, l.src[start:l.off]
	return t
}

// scanDigits consumes a run of decimal digits, or of hex digits when hex is
// set. A non-ASCII Unicode digit counts as a digit too; the parser rejects
// the literal.
func (l *Lexer) scanDigits(hex bool) {
	for l.off < len(l.src) {
		if c := l.src[l.off]; c < utf8.RuneSelf {
			if !('0' <= c && c <= '9' || hex && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')) {
				return
			}
			l.off++
		} else {
			r, w := utf8.DecodeRuneInString(l.src[l.off:])
			if !unicode.IsDigit(r) {
				return
			}
			l.off += w
		}
		l.col++
	}
}

func (l *Lexer) scanString(t token.Token) token.Token {
	l.advance() // opening quote
	start := l.off
	for {
		r := l.peek()
		if r == -1 || r == '\n' {
			l.errorf(&t, "unterminated string literal")
			t.Kind, t.Lit = token.ILLEGAL, l.src[start:l.off]
			return t
		}
		if r == '\\' {
			l.advance()
			l.advance()
			continue
		}
		if r == '"' {
			t.Kind, t.Lit = token.STRING, l.src[start:l.off]
			l.advance()
			return t
		}
		l.advance()
	}
}

// scanChar scans a character literal and yields it as an INT token holding
// the code point value, matching C semantics closely enough for branches.
func (l *Lexer) scanChar(t token.Token) token.Token {
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
		l.errorf(&t, "unterminated character literal")
	}
	t.Kind, t.Lit = token.INT, strconv.Itoa(int(r))
	return t
}

// All scans the entire input and returns every token up to and including
// the first EOF. It is a convenience for tests and tools.
func (l *Lexer) All() []token.Token {
	var out []token.Token
	for {
		t := l.Next()
		out = append(out, t)
		if t.Kind == token.EOF {
			return out
		}
	}
}
