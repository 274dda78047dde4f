package parser

import (
	"slices"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/token"
)

// Index is what the recognizer keeps of a file: one record per function
// definition and the name of each prototype, both in source order.
type Index struct {
	Funcs  []FuncInfo
	Protos []string
}

// FuncInfo is a function definition as the recognizer sees it.
type FuncInfo struct {
	Name   string
	Params []string // "" for an unnamed parameter
	HasRet bool     // declared with a non-void result
	Pos    token.Pos
	// Calls is the set of names the body calls, sorted. Like lowering, it
	// leaves out the calls in an increment's operand, in a sizeof operand
	// and in an assignment target that is not an identifier, field, index
	// or unary expression.
	Calls  []string
	Gotos  []Goto // in source order
	Labels []string
	Body   BodyStart
}

// Goto is a goto statement: its target label and position.
type Goto struct {
	Label string
	Pos   token.Pos
}

// BodyStart locates a function body's opening brace: its byte offset in
// the source and its line and column (columns count runes).
type BodyStart struct {
	Off, Line, Col int
}

// reject is the recognizer's bail-out: errorf panics with it at the first
// syntax error, and Recognize recovers it.
type reject struct{}

// Recognize checks src with the grammar ParseFile uses and indexes its
// functions without building a syntax tree. ok is false exactly when
// ParseFile reports an error; the recognizer keeps no message, so a
// caller re-parses a rejected file with ParseFile for one.
func Recognize(filename, src string) (idx Index, ok bool) {
	p := &Parser{win: make([]token.Token, 8), file: filename, idx: &idx}
	p.lx.Reset(filename, src)
	defer func() {
		if r := recover(); r != nil {
			if _, isReject := r.(reject); !isReject {
				panic(r)
			}
			idx, ok = Index{}, false
		}
	}()
	p.lex()
	for !p.at(token.EOF) {
		before := p.pos
		p.recTopDecl()
		if p.pos == before {
			p.errorf("unexpected token %s", p.cur())
		}
	}
	return idx, len(p.lx.Errors()) == 0
}

// The rec* methods below mirror the parse* methods they are named after,
// token decision for token decision, and keep only what FuncInfo records.

func (p *Parser) recTopDecl() {
	pos := p.here()
	p.accept(token.KwExtern)
	p.accept(token.KwStatic)
	if p.at(token.KwStruct) && p.peek().Kind == token.IDENT {
		if k := p.la(2).Kind; k == token.LBRACE || k == token.SEMI {
			p.recStructDecl()
			return
		}
	}
	typ, ok := p.parseType()
	if !ok {
		p.errorf("expected declaration, found %s", p.cur())
	}
	name := p.expect(token.IDENT).Lit
	if p.at(token.LPAREN) {
		p.recFuncRest(typ, name, pos)
		return
	}
	if p.accept(token.ASSIGN) {
		mark := len(p.strs)
		p.recExpr()
		p.strs = p.strs[:mark] // a global initializer belongs to no function
	}
	p.expect(token.SEMI)
}

func (p *Parser) recStructDecl() {
	p.expect(token.KwStruct)
	p.expect(token.IDENT)
	if p.accept(token.SEMI) {
		return
	}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		if _, ok := p.parseType(); !ok {
			p.errorf("expected field type, found %s", p.cur())
		}
		p.expect(token.IDENT)
		p.expect(token.SEMI)
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
}

func (p *Parser) recFuncRest(result ast.Type, name string, pos token.Pos) {
	p.expect(token.LPAREN)
	pstart := len(p.strs)
	if !p.at(token.RPAREN) {
		if p.at(token.KwVoid) && p.peek().Kind == token.RPAREN {
			p.next()
		} else {
			for {
				if _, ok := p.parseType(); !ok {
					p.errorf("expected parameter type, found %s", p.cur())
				}
				pname := ""
				if p.at(token.IDENT) {
					pname = p.next().Lit
				}
				p.strs = append(p.strs, pname)
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
	}
	p.expect(token.RPAREN)
	if p.accept(token.SEMI) {
		p.strs = p.strs[:pstart]
		p.idx.Protos = append(p.idx.Protos, name)
		return
	}
	t := p.cur()
	start := BodyStart{Off: int(t.Off), Line: int(t.Line), Col: int(t.Column)}
	cstart := len(p.strs)
	fi := FuncInfo{Name: name, HasRet: !result.IsVoid(), Pos: pos, Body: start}
	var ginfo gotoInfo
	p.recBlock(&ginfo)
	calls := p.strs[cstart:]
	slices.Sort(calls)
	p.strs = p.strs[:cstart+len(slices.Compact(calls))]
	fi.Params = span(p.strs, pstart, cstart)
	fi.Calls = span(p.strs, cstart, len(p.strs))
	fi.Gotos, fi.Labels = ginfo.gotos, ginfo.labels
	p.idx.Funcs = append(p.idx.Funcs, fi)
}

// span returns s[lo:hi] with its capacity cut to its length, so an append
// never writes into the next function's strings; nil when empty, as the
// syntax-tree path leaves an empty list.
func span(s []string, lo, hi int) []string {
	if lo == hi {
		return nil
	}
	return s[lo:hi:hi]
}

// gotoInfo collects one body's gotos and labels.
type gotoInfo struct {
	gotos  []Goto
	labels []string
}

func (p *Parser) recBlock(g *gotoInfo) {
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		p.recStmt(g)
		if p.pos == before {
			p.errorf("unexpected token %s in block", p.cur())
		}
	}
	p.expect(token.RBRACE)
}

func (p *Parser) recStmt(g *gotoInfo) {
	switch p.cur().Kind {
	case token.LBRACE:
		p.recBlock(g)
	case token.SEMI:
		p.next()
	case token.KwIf:
		p.next()
		p.recParenExpr()
		p.recStmt(g)
		if p.accept(token.KwElse) {
			p.recStmt(g)
		}
	case token.KwWhile:
		p.next()
		p.recParenExpr()
		p.recStmt(g)
	case token.KwDo:
		p.next()
		p.recStmt(g)
		p.expect(token.KwWhile)
		p.recParenExpr()
		p.expect(token.SEMI)
	case token.KwFor:
		p.recFor(g)
	case token.KwSwitch:
		p.recSwitch(g)
	case token.KwGoto:
		pos := p.next().Pos(p.file)
		lbl := p.expect(token.IDENT).Lit
		p.expect(token.SEMI)
		g.gotos = append(g.gotos, Goto{Label: lbl, Pos: pos})
	case token.KwReturn:
		p.next()
		if !p.at(token.SEMI) {
			p.recExpr()
		}
		p.expect(token.SEMI)
	case token.KwBreak, token.KwContinue:
		p.next()
		p.expect(token.SEMI)
	case token.KwAssert:
		p.next()
		p.recParenExpr()
		p.expect(token.SEMI)
	case token.KwAsm:
		p.next()
		p.expect(token.LPAREN)
		if p.at(token.STRING) {
			p.next()
		}
		if p.skipParens() {
			p.expect(token.SEMI)
		}
	case token.IDENT:
		if p.peek().Kind == token.COLON {
			g.labels = append(g.labels, p.next().Lit)
			p.next() // ':'
			if !p.at(token.RBRACE) {
				p.recStmt(g)
			}
			return
		}
		if p.looksLikeDecl() {
			p.recDeclStmt()
			return
		}
		p.recExpr()
		p.expect(token.SEMI)
	default:
		if p.cur().Kind.IsTypeKeyword() {
			p.recDeclStmt()
			return
		}
		p.recExpr()
		p.expect(token.SEMI)
	}
}

// recParenExpr recognizes "( expr )".
func (p *Parser) recParenExpr() {
	p.expect(token.LPAREN)
	p.recExpr()
	p.expect(token.RPAREN)
}

func (p *Parser) recDeclStmt() {
	if _, ok := p.parseType(); !ok {
		p.errorf("expected type in declaration, found %s", p.cur())
	}
	for {
		p.expect(token.IDENT)
		if p.accept(token.ASSIGN) {
			p.recExpr()
		}
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
}

func (p *Parser) recFor(g *gotoInfo) {
	p.next()
	p.expect(token.LPAREN)
	if !p.at(token.SEMI) {
		if p.cur().Kind.IsTypeKeyword() || p.looksLikeDecl() {
			p.recDeclStmt()
		} else {
			p.recExpr()
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	if !p.at(token.SEMI) {
		p.recExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		p.recExpr()
	}
	p.expect(token.RPAREN)
	p.recStmt(g)
}

func (p *Parser) recSwitch(g *gotoInfo) {
	p.next()
	p.recParenExpr()
	p.expect(token.LBRACE)
	inCase := false
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		switch {
		case p.accept(token.KwCase):
			p.recExpr()
			p.expect(token.COLON)
			inCase = true
		case p.accept(token.KwDefault):
			p.expect(token.COLON)
			inCase = true
		default:
			p.recStmt(g)
			if !inCase {
				p.errorf("statement before first case in switch")
			}
		}
	}
	p.expect(token.RBRACE)
}

// recExpr recognizes an expression and reports whether it is an
// identifier, field, index or unary expression: the assignment targets
// lowering evaluates. The calls of any other target are dropped from
// p.strs, since lowering never evaluates them.
func (p *Parser) recExpr() (target bool) {
	mark := len(p.strs)
	target = p.recBinary(0)
	switch p.cur().Kind {
	case token.ASSIGN, token.PLUSASSIGN, token.MINUSASSIGN:
		p.next()
		if !target {
			p.strs = p.strs[:mark]
		}
		p.recExpr()
		return false
	}
	return target
}

func (p *Parser) recBinary(minPrec int) (target bool) {
	target = p.recUnary()
	for {
		prec, ok := precedence(p.cur().Kind)
		if !ok || prec < minPrec {
			return target
		}
		p.next()
		p.recBinary(prec + 1)
		target = false
	}
}

func (p *Parser) recUnary() (target bool) {
	switch p.cur().Kind {
	case token.NOT, token.MINUS, token.TILDE, token.STAR, token.AMP:
		p.next()
		p.recUnary()
		return true
	case token.PLUS:
		p.next()
		return p.recUnary() // the parser drops a unary plus
	case token.PLUSPLUS, token.MINUSMINUS:
		p.next()
		mark := len(p.strs)
		p.recUnary()
		p.strs = p.strs[:mark] // an increment's operand is not lowered
		return false
	case token.KwSizeof:
		p.next()
		if p.accept(token.LPAREN) {
			p.skipParens()
		} else {
			mark := len(p.strs)
			p.recUnary()
			p.strs = p.strs[:mark] // nor is a sizeof operand
		}
		return false
	}
	return p.recPostfix()
}

func (p *Parser) recPostfix() (target bool) {
	mark := len(p.strs)
	target = p.recPrimary()
	for {
		switch p.cur().Kind {
		case token.ARROW, token.DOT:
			p.next()
			p.expect(token.IDENT)
			target = true
		case token.LBRACK:
			p.next()
			p.recExpr()
			p.expect(token.RBRACK)
			target = true
		case token.PLUSPLUS, token.MINUSMINUS:
			p.next()
			p.strs = p.strs[:mark] // the operand is everything since mark
			target = false
		default:
			return target
		}
	}
}

func (p *Parser) recPrimary() (target bool) {
	switch p.cur().Kind {
	case token.IDENT:
		name := p.next().Lit
		if !p.accept(token.LPAREN) {
			return true
		}
		p.strs = append(p.strs, name)
		if !p.at(token.RPAREN) {
			for {
				p.recExpr()
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
		p.expect(token.RPAREN)
		return false
	case token.INT:
		if _, err := parseIntLit(p.cur().Lit); err != nil {
			p.errorf("bad integer literal %q", p.cur().Lit)
		}
		p.next()
		return false
	case token.KwTrue, token.KwFalse, token.KwNull, token.STRING:
		p.next()
		return false
	case token.KwRandom:
		p.next()
		if p.accept(token.LPAREN) {
			p.expect(token.RPAREN)
		}
		return false
	case token.LPAREN:
		p.next()
		if p.cur().Kind.IsTypeKeyword() || (p.cur().Kind == token.IDENT && castLookahead(p)) {
			if _, ok := p.parseType(); ok && p.accept(token.RPAREN) {
				return p.recUnary()
			}
		}
		target = p.recExpr()
		p.expect(token.RPAREN)
		return target
	}
	p.errorf("expected expression, found %s", p.cur())
	return false
}
