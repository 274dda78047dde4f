// Package parser implements a recursive-descent parser for the mini-C
// language. It is resilient: on a syntax error it records a diagnostic,
// resynchronizes at the next statement or declaration boundary, and keeps
// going, so a large generated corpus parses in one pass. Nesting is
// bounded (maxDepth), so no input can exhaust the stack. ParseFile keeps
// the tree it builds; ParseScoped and ParseBody build a whole file or one
// function body in a recycled parser's memory and take it back once their
// caller is done with the tree.
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/lexer"
	"repro/internal/frontend/token"
)

// Parser parses one translation unit. It pulls tokens from the lexer on
// demand into a small ring window and drops them once consumed, so no
// per-file token slice is built.
type Parser struct {
	lx      lexer.Lexer
	win     []token.Token // token i is win[i&(len(win)-1)]; len is a power of two
	pos     int           // index of the current token, counted from the start of the file
	lexed   int           // tokens taken from lx; always > pos
	file    string
	errs    []error
	depth   int   // constructs open at the current token (enter)
	stopped bool  // the input nests too deeply; the parse has skipped to EOF
	tree    nodes // the syntax tree's memory (nodes.go)
}

// ParseFile lexes and parses src, returning the AST and any accumulated
// syntax errors (the AST is still usable when errors are non-nil, covering
// the declarations that parsed cleanly).
func ParseFile(filename, src string) (*ast.File, error) {
	p := &Parser{win: make([]token.Token, 8), file: filename}
	p.lx.Reset(filename, src)
	p.lex()
	f := p.parseFile()
	return f, p.err()
}

// err joins the scan and syntax errors of the parse so far.
func (p *Parser) err() error {
	return errors.Join(append(p.lx.Errors(), p.errs...)...)
}

// lex appends the lexer's next token to the window, doubling the window
// when every slot holds a token not yet consumed.
func (p *Parser) lex() {
	if p.lexed-p.pos == len(p.win) {
		p.grow()
	}
	p.win[p.lexed&(len(p.win)-1)] = p.lx.Next()
	p.lexed++
}

// grow doubles the ring, keeping the tokens from the current one on.
func (p *Parser) grow() {
	out := make([]token.Token, 2*len(p.win))
	for i := p.pos; i < p.lexed; i++ {
		out[i&(len(out)-1)] = p.win[i&(len(p.win)-1)]
	}
	p.win = out
}

// la returns the token k places after the current one. The lexer yields
// EOF forever, so looking past the end returns the EOF token.
func (p *Parser) la(k int) *token.Token {
	for p.lexed <= p.pos+k {
		p.lex()
	}
	return &p.win[(p.pos+k)&(len(p.win)-1)]
}

func (p *Parser) cur() *token.Token  { return &p.win[p.pos&(len(p.win)-1)] }
func (p *Parser) peek() *token.Token { return p.la(1) }

// next consumes the current token and returns it in place. At EOF it
// stays put. The window reuses the slot once the parser looks a few tokens
// further ahead, so callers read the token before parsing on.
func (p *Parser) next() *token.Token {
	t := p.cur()
	if t.Kind != token.EOF {
		p.pos++
		if p.pos == p.lexed {
			p.lex()
		}
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

// here returns the position of the current token.
func (p *Parser) here() token.Pos { return p.cur().Pos(p.file) }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) *token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	t := *p.cur()
	t.Kind, t.Lit = k, ""
	return &t
}

func (p *Parser) errorf(format string, args ...any) {
	if p.stopped {
		return
	}
	p.errs = append(p.errs, fmt.Errorf("%s: %s", p.here(), fmt.Sprintf(format, args...)))
}

// maxDepth bounds how deeply constructs nest. Each statement that holds
// statements (a block, if, loop, switch or label), each parenthesis, call
// argument list and index, each unary operator and each assignment is one
// level; a function body is level 0.
const maxDepth = 1000

// enter opens a level of nesting at the current token, and leave closes
// it.
func (p *Parser) enter() {
	if p.depth++; p.depth > maxDepth && !p.stopped {
		p.stop()
	}
}

func (p *Parser) leave() { p.depth-- }

// stop records that the input nests too deeply and ends the parse: the
// rest of the input reads as EOF, so every open construct closes at once
// and reports nothing more. Hostile input thus costs linear time and one
// error.
func (p *Parser) stop() {
	p.errorf("nesting deeper than %d", maxDepth)
	p.stopped = true
	p.lx.Stop()
	p.pos = p.lexed
	p.lex()
}

// sync skips tokens until a likely statement/declaration boundary: a
// semicolon or closing brace at the current nesting level, or — since brace
// counting is unreliable after a syntax error — a type keyword at the start
// of a line, which in this corpus always begins a new top-level declaration.
func (p *Parser) sync() {
	depth := 0
	first := true
	for {
		t := p.cur()
		if !first && t.Column == 1 && t.Kind.IsTypeKeyword() {
			return
		}
		first = false
		switch t.Kind {
		case token.EOF:
			return
		case token.LBRACE:
			depth++
		case token.RBRACE:
			if depth == 0 {
				return
			}
			depth--
		case token.SEMI:
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (p *Parser) parseFile() *ast.File {
	f := node(&p.tree.files, ast.File{Name: p.file})
	for !p.at(token.EOF) {
		before := p.pos
		if d := p.parseTopDecl(); d != nil {
			p.tree.topDecls = append(p.tree.topDecls, d)
		}
		if p.pos == before { // no progress: drop a token to avoid livelock
			p.errorf("unexpected token %s", p.cur())
			p.next()
		}
	}
	f.Decls = list(&p.tree.declLists, &p.tree.topDecls, 0)
	f.Structs = list(&p.tree.structLists, &p.tree.structs, 0)
	return f
}

// parseTopDecl parses one top-level declaration. Struct declarations are
// stacked for the file's Structs and nil is returned for them.
func (p *Parser) parseTopDecl() ast.Decl {
	pos := p.here()
	extern := p.accept(token.KwExtern)
	static := p.accept(token.KwStatic)
	// A struct declaration: struct tag { ... };
	if p.at(token.KwStruct) && p.peek().Kind == token.IDENT {
		// Lookahead for "struct tag {" or "struct tag ;"
		if k := p.la(2).Kind; k == token.LBRACE || k == token.SEMI {
			p.tree.structs = append(p.tree.structs, p.parseStructDecl())
			return nil
		}
	}
	typ, ok := p.parseType()
	if !ok {
		p.errorf("expected declaration, found %s", p.cur())
		p.sync()
		return nil
	}
	name := p.expect(token.IDENT).Lit
	if p.at(token.LPAREN) {
		return p.parseFuncRest(typ, name, pos, extern, static)
	}
	// Top-level variable.
	var init ast.Expr
	if p.accept(token.ASSIGN) {
		init = p.parseExpr()
	}
	p.expect(token.SEMI)
	return node(&p.tree.varDecls, ast.VarDecl{Type: typ, Name: name, Init: init, P: pos})
}

func (p *Parser) parseStructDecl() *ast.StructDecl {
	pos := p.expect(token.KwStruct).Pos(p.file)
	tag := p.expect(token.IDENT).Lit
	sd := node(&p.tree.structDecls, ast.StructDecl{Tag: tag, P: pos})
	if p.accept(token.SEMI) { // opaque forward declaration
		return sd
	}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		ft, ok := p.parseType()
		if !ok {
			p.errorf("expected field type, found %s", p.cur())
			p.sync()
			break
		}
		fname := p.expect(token.IDENT).Lit
		p.tree.paramStack = append(p.tree.paramStack, node(&p.tree.params, ast.Param{Type: ft, Name: fname, P: pos}))
		p.expect(token.SEMI)
	}
	sd.Fields = list(&p.tree.paramLists, &p.tree.paramStack, 0)
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
	return sd
}

// parseType parses a type specifier; reports ok=false if the current token
// cannot begin a type.
func (p *Parser) parseType() (ast.Type, bool) {
	var t ast.Type
	// Skip qualifiers.
	for p.at(token.KwConst) || p.at(token.KwUnsigned) || p.at(token.KwStatic) {
		p.next()
	}
	switch p.cur().Kind {
	case token.KwInt, token.KwLong, token.KwChar, token.KwVoid, token.KwBool:
		t.Name = p.next().Kind.String()
		// long long, unsigned long ...
		for p.at(token.KwLong) || p.at(token.KwInt) {
			p.next()
		}
	case token.KwStruct:
		p.next()
		t.Struct = true
		t.Name = p.expect(token.IDENT).Lit
	case token.IDENT:
		// Typedef-style names used by corpora: irqreturn_t, PyObject, size_t...
		// Accepted only when followed by '*' or an identifier, to avoid
		// swallowing expression identifiers.
		if p.peek().Kind == token.STAR || p.peek().Kind == token.IDENT {
			t.Name = p.next().Lit
		} else {
			return t, false
		}
	default:
		return t, false
	}
	for p.at(token.KwConst) {
		p.next()
	}
	for p.accept(token.STAR) {
		t.Pointer++
		for p.at(token.KwConst) {
			p.next()
		}
	}
	return t, true
}

func (p *Parser) parseFuncRest(result ast.Type, name string, pos token.Pos, extern, static bool) ast.Decl {
	p.expect(token.LPAREN)
	fd := node(&p.tree.funcDecls, ast.FuncDecl{Result: result, Name: name, Extern: extern, Static: static, P: pos})
	if !p.at(token.RPAREN) {
		if p.at(token.KwVoid) && p.peek().Kind == token.RPAREN {
			p.next() // f(void)
		} else {
			for {
				ppos := p.here()
				pt, ok := p.parseType()
				if !ok {
					p.errorf("expected parameter type, found %s", p.cur())
					p.sync()
					fd.Params = list(&p.tree.paramLists, &p.tree.paramStack, 0)
					return fd
				}
				pname := ""
				if p.at(token.IDENT) {
					pname = p.next().Lit
				}
				p.tree.paramStack = append(p.tree.paramStack, node(&p.tree.params, ast.Param{Type: pt, Name: pname, P: ppos}))
				if !p.accept(token.COMMA) {
					break
				}
			}
		}
	}
	fd.Params = list(&p.tree.paramLists, &p.tree.paramStack, 0)
	p.expect(token.RPAREN)
	if p.accept(token.SEMI) {
		return fd // prototype
	}
	fd.BodyOff = int(p.cur().Off)
	fd.Body = p.parseBlock()
	return fd
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.BlockStmt {
	b := node(&p.tree.blocks, ast.BlockStmt{P: p.here()})
	p.expect(token.LBRACE)
	mark := len(p.tree.stmts)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		if s := p.parseStmt(); s != nil {
			p.tree.stmts = append(p.tree.stmts, s)
		}
		if p.pos == before {
			p.errorf("unexpected token %s in block", p.cur())
			p.next()
		}
	}
	b.Stmts = p.tree.stmtList(mark)
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	pos := p.here()
	switch p.cur().Kind {
	case token.LBRACE:
		p.enter()
		b := p.parseBlock()
		p.leave()
		return b
	case token.SEMI:
		p.next()
		return node(&p.tree.empties, ast.EmptyStmt{P: pos})
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwGoto:
		p.next()
		lbl := p.expect(token.IDENT).Lit
		p.expect(token.SEMI)
		return node(&p.tree.gotos, ast.GotoStmt{Label: lbl, P: pos})
	case token.KwReturn:
		p.next()
		var x ast.Expr
		if !p.at(token.SEMI) {
			x = p.parseExpr()
		}
		p.expect(token.SEMI)
		return node(&p.tree.returns, ast.ReturnStmt{X: x, P: pos})
	case token.KwBreak:
		p.next()
		p.expect(token.SEMI)
		return node(&p.tree.breaks, ast.BreakStmt{P: pos})
	case token.KwContinue:
		p.next()
		p.expect(token.SEMI)
		return node(&p.tree.continues, ast.ContinueStmt{P: pos})
	case token.KwAssert:
		p.next()
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return node(&p.tree.asserts, ast.AssertStmt{X: x, P: pos})
	case token.KwAsm:
		p.next()
		p.expect(token.LPAREN)
		txt := ""
		if p.at(token.STRING) {
			txt = p.next().Lit
		}
		// Swallow any extended-asm operand soup up to the closing paren.
		if p.skipParens() {
			p.expect(token.SEMI)
		}
		return node(&p.tree.asms, ast.AsmStmt{Text: txt, P: pos})
	case token.IDENT:
		// Either a label, a typedef-name declaration, or an expression.
		if p.peek().Kind == token.COLON {
			p.enter()
			name := p.next().Lit
			p.next() // ':'
			var inner ast.Stmt
			if p.at(token.RBRACE) {
				inner = node(&p.tree.empties, ast.EmptyStmt{P: pos}) // label at end of block
			} else {
				inner = p.parseStmt()
			}
			p.leave()
			return node(&p.tree.labeled, ast.LabeledStmt{Label: name, Stmt: inner, P: pos})
		}
		if p.looksLikeDecl() {
			return p.parseDeclStmt()
		}
		return p.parseExprStmt()
	default:
		if p.cur().Kind.IsTypeKeyword() {
			return p.parseDeclStmt()
		}
		return p.parseExprStmt()
	}
}

// looksLikeDecl reports whether "IDENT IDENT" or "IDENT *" begins a
// declaration with a typedef-style type name.
func (p *Parser) looksLikeDecl() bool {
	if p.cur().Kind != token.IDENT {
		return false
	}
	k := p.peek().Kind
	if k == token.IDENT {
		return true
	}
	if k == token.STAR {
		// "x * y;" is ambiguous in C; in this corpus a multiplication
		// statement is meaningless, so treat as declaration only when the
		// token after the stars is IDENT followed by ';' or '='.
		i := 1
		for p.la(i).Kind == token.STAR {
			i++
		}
		if p.la(i).Kind == token.IDENT {
			j := p.la(i + 1).Kind
			return j == token.SEMI || j == token.ASSIGN || j == token.COMMA
		}
	}
	return false
}

func (p *Parser) parseDeclStmt() ast.Stmt {
	pos := p.here()
	typ, ok := p.parseType()
	if !ok {
		p.errorf("expected type in declaration, found %s", p.cur())
		p.sync()
		return nil
	}
	// Possibly several declarators: int a = 1, b;
	mark := len(p.tree.stmts)
	for {
		name := p.expect(token.IDENT).Lit
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.parseExpr()
		}
		d := node(&p.tree.decls, ast.DeclStmt{Type: typ, Name: name, Init: init, P: pos})
		p.tree.stmts = append(p.tree.stmts, d)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
	if len(p.tree.stmts) == mark+1 {
		d := p.tree.stmts[mark]
		p.tree.stmts = truncate(p.tree.stmts, mark)
		return d
	}
	return node(&p.tree.blocks, ast.BlockStmt{Stmts: p.tree.stmtList(mark), P: pos})
}

func (p *Parser) parseExprStmt() ast.Stmt {
	pos := p.here()
	x := p.parseExpr()
	p.expect(token.SEMI)
	return node(&p.tree.exprStmts, ast.ExprStmt{X: x, P: pos})
}

func (p *Parser) parseIf() ast.Stmt {
	p.enter()
	defer p.leave()
	pos := p.expect(token.KwIf).Pos(p.file)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		els = p.parseStmt()
	}
	return node(&p.tree.ifs, ast.IfStmt{Cond: cond, Then: then, Else: els, P: pos})
}

func (p *Parser) parseWhile() ast.Stmt {
	p.enter()
	defer p.leave()
	pos := p.expect(token.KwWhile).Pos(p.file)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return node(&p.tree.whiles, ast.WhileStmt{Cond: cond, Body: body, P: pos})
}

func (p *Parser) parseDoWhile() ast.Stmt {
	p.enter()
	defer p.leave()
	pos := p.expect(token.KwDo).Pos(p.file)
	body := p.parseStmt()
	p.expect(token.KwWhile)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	return node(&p.tree.doWhiles, ast.DoWhileStmt{Body: body, Cond: cond, P: pos})
}

func (p *Parser) parseFor() ast.Stmt {
	p.enter()
	defer p.leave()
	pos := p.expect(token.KwFor).Pos(p.file)
	p.expect(token.LPAREN)
	f := node(&p.tree.fors, ast.ForStmt{P: pos})
	if !p.at(token.SEMI) {
		if p.cur().Kind.IsTypeKeyword() || p.looksLikeDecl() {
			f.Init = p.parseDeclStmt() // consumes the ';'
		} else {
			x := p.parseExpr()
			f.Init = node(&p.tree.exprStmts, ast.ExprStmt{X: x, P: pos})
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	if !p.at(token.SEMI) {
		f.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if !p.at(token.RPAREN) {
		f.Post = p.parseExpr()
	}
	p.expect(token.RPAREN)
	f.Body = p.parseStmt()
	return f
}

func (p *Parser) parseSwitch() ast.Stmt {
	p.enter()
	defer p.leave()
	pos := p.expect(token.KwSwitch).Pos(p.file)
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	sw := node(&p.tree.switches, ast.SwitchStmt{Tag: tag, P: pos})
	// The current clause's statements collect on the statement stack from
	// smark on until the next clause starts.
	cmark, smark := len(p.tree.cases), len(p.tree.stmts)
	var cur *ast.CaseClause
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		var next *ast.CaseClause
		switch {
		case p.accept(token.KwCase):
			v := p.parseExpr()
			p.expect(token.COLON)
			next = node(&p.tree.clauses, ast.CaseClause{Value: v, P: pos})
		case p.accept(token.KwDefault):
			p.expect(token.COLON)
			next = node(&p.tree.clauses, ast.CaseClause{IsDefault: true, P: pos})
		default:
			s := p.parseStmt()
			if cur == nil {
				p.errorf("statement before first case in switch")
				next = node(&p.tree.clauses, ast.CaseClause{IsDefault: true, P: pos})
			}
			if s != nil {
				p.tree.stmts = append(p.tree.stmts, s)
			}
		}
		if next != nil {
			if cur != nil {
				cur.Body = p.tree.stmtList(smark)
			}
			cur = next
			p.tree.cases = append(p.tree.cases, cur)
		}
	}
	if cur != nil {
		cur.Body = p.tree.stmtList(smark)
	}
	sw.Cases = p.tree.caseList(cmark)
	p.expect(token.RBRACE)
	return sw
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

// parseExpr parses an expression including assignment (lowest precedence,
// right-associative).
func (p *Parser) parseExpr() ast.Expr {
	lhs := p.parseBinary(0) // the grammar has no ?: operator
	switch p.cur().Kind {
	case token.ASSIGN, token.PLUSASSIGN, token.MINUSASSIGN:
		p.enter()
		op := p.next().Kind
		rhs := p.parseExpr()
		p.leave()
		return node(&p.tree.assigns, ast.AssignExpr{Op: op, LHS: lhs, RHS: rhs, P: lhs.Pos()})
	}
	return lhs
}

// precedence returns a binary operator's precedence, loosest (1) to
// tightest, and false for a token that is not a binary operator.
func precedence(k token.Kind) (int, bool) {
	switch k {
	case token.LOR:
		return 1, true
	case token.LAND:
		return 2, true
	case token.PIPE:
		return 3, true
	case token.CARET:
		return 4, true
	case token.AMP:
		return 5, true
	case token.EQ, token.NE:
		return 6, true
	case token.LT, token.LE, token.GT, token.GE:
		return 7, true
	case token.SHL, token.SHR:
		return 8, true
	case token.PLUS, token.MINUS:
		return 9, true
	case token.STAR, token.SLASH, token.PERCENT:
		return 10, true
	}
	return 0, false
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		op := p.cur().Kind
		prec, ok := precedence(op)
		if !ok || prec < minPrec {
			return lhs
		}
		pos := p.next().Pos(p.file)
		rhs := p.parseBinary(prec + 1)
		lhs = node(&p.tree.binaries, ast.BinaryExpr{Op: op, X: lhs, Y: rhs, P: pos})
	}
}

func (p *Parser) parseUnary() ast.Expr {
	pos := p.here()
	switch p.cur().Kind {
	case token.NOT, token.MINUS, token.TILDE, token.STAR, token.AMP, token.PLUS:
		p.enter()
		op := p.next().Kind
		x := p.parseUnary()
		p.leave()
		if op == token.PLUS {
			return x
		}
		return node(&p.tree.unaries, ast.UnaryExpr{Op: op, X: x, P: pos})
	case token.PLUSPLUS, token.MINUSMINUS:
		p.enter()
		op := p.next().Kind
		x := p.parseUnary()
		p.leave()
		return node(&p.tree.incDecs, ast.IncDecExpr{Op: op, X: x, P: pos})
	case token.KwSizeof:
		p.enter()
		p.next()
		if p.accept(token.LPAREN) {
			p.skipParens() // sizeof(type) or sizeof(expr)
		} else {
			p.parseUnary()
		}
		p.leave()
		// Abstract sizeof as an unknown positive — a random value.
		return node(&p.tree.randoms, ast.RandomExpr{P: pos})
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		pos := p.here()
		switch p.cur().Kind {
		case token.ARROW:
			p.next()
			name := p.expect(token.IDENT).Lit
			x = node(&p.tree.fields, ast.FieldExpr{X: x, Name: name, Arrow: true, P: pos})
		case token.DOT:
			p.next()
			name := p.expect(token.IDENT).Lit
			x = node(&p.tree.fields, ast.FieldExpr{X: x, Name: name, P: pos})
		case token.LBRACK:
			p.enter()
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			p.leave()
			x = node(&p.tree.indexes, ast.IndexExpr{X: x, Index: idx, P: pos})
		case token.PLUSPLUS, token.MINUSMINUS:
			op := p.next().Kind
			x = node(&p.tree.incDecs, ast.IncDecExpr{Op: op, X: x, P: pos})
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() ast.Expr {
	pos := p.here()
	switch p.cur().Kind {
	case token.IDENT:
		name := p.next().Lit
		if p.at(token.LPAREN) {
			p.enter()
			p.next()
			call := node(&p.tree.calls, ast.CallExpr{Fun: name, P: pos})
			mark := len(p.tree.exprs)
			if !p.at(token.RPAREN) {
				for {
					x := p.parseExpr()
					p.tree.exprs = append(p.tree.exprs, x)
					if !p.accept(token.COMMA) {
						break
					}
				}
			}
			call.Args = p.tree.exprList(mark)
			p.expect(token.RPAREN)
			p.leave()
			return call
		}
		return node(&p.tree.idents, ast.Ident{Name: name, P: pos})
	case token.INT:
		t := p.next()
		v, err := parseIntLit(t.Lit)
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("%s: bad integer literal %q", t.Pos(p.file), t.Lit))
		}
		return node(&p.tree.ints, ast.IntLit{Value: v, Text: t.Lit, P: pos})
	case token.KwTrue:
		p.next()
		return node(&p.tree.bools, ast.BoolLit{Value: true, P: pos})
	case token.KwFalse:
		p.next()
		return node(&p.tree.bools, ast.BoolLit{Value: false, P: pos})
	case token.KwNull:
		p.next()
		return node(&p.tree.nulls, ast.NullLit{P: pos})
	case token.KwRandom:
		p.next()
		if p.accept(token.LPAREN) {
			p.expect(token.RPAREN)
		}
		return node(&p.tree.randoms, ast.RandomExpr{P: pos})
	case token.LPAREN:
		p.enter()
		defer p.leave()
		p.next()
		// Cast: (type) expr — the analysis is untyped, drop the cast.
		if p.cur().Kind.IsTypeKeyword() || (p.cur().Kind == token.IDENT && castLookahead(p)) {
			if _, ok := p.parseType(); ok && p.accept(token.RPAREN) {
				return p.parseUnary()
			}
		}
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	case token.STRING:
		t := p.next()
		// String literals appear only as opaque arguments (e.g. dev_err);
		// model as a random value.
		_ = t
		return node(&p.tree.randoms, ast.RandomExpr{P: pos})
	}
	p.errorf("expected expression, found %s", p.cur())
	p.next()
	return node(&p.tree.ints, ast.IntLit{Value: 0, Text: "0", P: pos})
}

// skipParens consumes tokens up to and including the ')' that closes a
// '(' already consumed, and reports whether it found one before EOF.
func (p *Parser) skipParens() bool {
	for depth := 1; !p.at(token.EOF); {
		switch p.next().Kind {
		case token.LPAREN:
			depth++
		case token.RPAREN:
			if depth--; depth == 0 {
				return true
			}
		}
	}
	return false
}

// castLookahead reports whether "( IDENT ..." is a pointer cast such as
// "(PyObject *)x": the name must be followed by one or more '*' and then
// ')'. Only pointer casts are recognized for typedef-style names; "(x)"
// and "(len * 4)" stay expressions.
func castLookahead(p *Parser) bool {
	i := 1
	for p.la(i).Kind == token.STAR {
		i++
	}
	return i > 1 && p.la(i).Kind == token.RPAREN
}

// parseIntLit returns the value of a C integer literal: hexadecimal after
// 0x, octal after a leading 0, decimal otherwise; U and L suffixes are
// ignored. Values up to 2^64-1 are accepted as their two's-complement
// int64, so a U64_MAX-style mask reads as -1.
func parseIntLit(s string) (int64, error) {
	s = strings.TrimRight(s, "uUlL")
	base := 10
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		s, base = s[2:], 16
	case len(s) > 1 && s[0] == '0':
		s, base = s[1:], 8
	default:
		// A character literal cut off by the end of input lexes as -1.
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v, nil
		}
	}
	u, err := strconv.ParseUint(s, base, 64)
	return int64(u), err
}
