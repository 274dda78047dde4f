package parser

import (
	"sync"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/token"
)

// nodes is the memory a parse builds its syntax tree in: the file, its
// declarations and every statement and expression node in one slab per
// type, and every list (a file's declarations, a function's parameters, a
// block's statements, a call's arguments, a switch's clauses) carved from
// a slab once it is complete. While a list is being parsed, its elements
// wait on a stack, since the lists of nested constructs are built inside
// it. A tree from ParseFile keeps its slabs; a recycled parser resets and
// reuses them.
type nodes struct {
	files       slab[ast.File]
	funcDecls   slab[ast.FuncDecl]
	varDecls    slab[ast.VarDecl]
	structDecls slab[ast.StructDecl]
	params      slab[ast.Param]
	blocks      slab[ast.BlockStmt]
	decls       slab[ast.DeclStmt]
	exprStmts   slab[ast.ExprStmt]
	ifs         slab[ast.IfStmt]
	whiles      slab[ast.WhileStmt]
	doWhiles    slab[ast.DoWhileStmt]
	fors        slab[ast.ForStmt]
	gotos       slab[ast.GotoStmt]
	labeled     slab[ast.LabeledStmt]
	returns     slab[ast.ReturnStmt]
	breaks      slab[ast.BreakStmt]
	continues   slab[ast.ContinueStmt]
	asserts     slab[ast.AssertStmt]
	asms        slab[ast.AsmStmt]
	empties     slab[ast.EmptyStmt]
	switches    slab[ast.SwitchStmt]
	clauses     slab[ast.CaseClause]
	idents      slab[ast.Ident]
	ints        slab[ast.IntLit]
	bools       slab[ast.BoolLit]
	nulls       slab[ast.NullLit]
	unaries     slab[ast.UnaryExpr]
	binaries    slab[ast.BinaryExpr]
	assigns     slab[ast.AssignExpr]
	incDecs     slab[ast.IncDecExpr]
	calls       slab[ast.CallExpr]
	fields      slab[ast.FieldExpr]
	indexes     slab[ast.IndexExpr]
	randoms     slab[ast.RandomExpr]

	declLists   slab[ast.Decl]
	structLists slab[*ast.StructDecl]
	paramLists  slab[*ast.Param]
	stmtLists   slab[ast.Stmt]
	exprLists   slab[ast.Expr]
	caseLists   slab[*ast.CaseClause]
	topDecls    []ast.Decl        // the file's declarations
	structs     []*ast.StructDecl // the file's struct declarations
	paramStack  []*ast.Param      // a function's parameters or a struct's fields
	stmts       []ast.Stmt        // the statement stack
	exprs       []ast.Expr        // the argument stack
	cases       []*ast.CaseClause
}

// reset zeroes every node and list handed out, so that nothing the slabs
// keep for reuse points into a source or a tree, and makes them reusable.
func (t *nodes) reset() {
	for _, s := range [...]interface{ reset() }{
		&t.files, &t.funcDecls, &t.varDecls, &t.structDecls, &t.params,
		&t.blocks, &t.decls, &t.exprStmts, &t.ifs, &t.whiles, &t.doWhiles, &t.fors,
		&t.gotos, &t.labeled, &t.returns, &t.breaks, &t.continues, &t.asserts,
		&t.asms, &t.empties, &t.switches, &t.clauses, &t.idents, &t.ints, &t.bools,
		&t.nulls, &t.unaries, &t.binaries, &t.assigns, &t.incDecs, &t.calls,
		&t.fields, &t.indexes, &t.randoms, &t.declLists, &t.structLists,
		&t.paramLists, &t.stmtLists, &t.exprLists, &t.caseLists,
	} {
		s.reset()
	}
	t.topDecls = truncate(t.topDecls, 0)
	t.structs = truncate(t.structs, 0)
	t.paramStack = truncate(t.paramStack, 0)
	t.stmts = truncate(t.stmts, 0)
	t.exprs = truncate(t.exprs, 0)
	t.cases = truncate(t.cases, 0)
}

// stmtList moves the statements stacked since mark into a list.
func (t *nodes) stmtList(mark int) []ast.Stmt { return list(&t.stmtLists, &t.stmts, mark) }

// exprList moves the arguments stacked since mark into a list.
func (t *nodes) exprList(mark int) []ast.Expr { return list(&t.exprLists, &t.exprs, mark) }

// caseList moves the clauses stacked since mark into a list.
func (t *nodes) caseList(mark int) []*ast.CaseClause { return list(&t.caseLists, &t.cases, mark) }

// list pops the entries of *stack from mark on into an exact-size list
// from s; nil when there are none, as a list built by append would be.
func list[T any](s *slab[T], stack *[]T, mark int) []T {
	n := len(*stack) - mark
	if n == 0 {
		return nil
	}
	out := s.alloc(n)
	copy(out, (*stack)[mark:])
	*stack = truncate(*stack, mark)
	return out
}

// truncate cuts s to length n, zeroing the entries it drops.
func truncate[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// slab hands out runs of T from chunks it never moves, so a pointer into
// one stays valid for as long as the slab is not reset.
type slab[T any] struct {
	chunks [][]T // each chunk's length is the part handed out
	cur    int   // index of the chunk being filled
}

// Chunks start small, for the many files with few constructs of a kind,
// and double up to a bound.
const minChunk, maxChunk = 4, 128

// alloc returns n zero values with capacity n.
func (s *slab[T]) alloc(n int) []T {
	for ; s.cur < len(s.chunks); s.cur++ {
		c := s.chunks[s.cur]
		if m := len(c) + n; m <= cap(c) {
			s.chunks[s.cur] = c[:m]
			return c[len(c):m:m]
		}
	}
	size := minChunk
	if k := len(s.chunks); k > 0 {
		size = min(2*cap(s.chunks[k-1]), maxChunk)
	}
	c := make([]T, n, max(n, size))
	s.chunks = append(s.chunks, c)
	return c[:n:n]
}

// reset zeroes what s has handed out and makes it available again.
func (s *slab[T]) reset() {
	for i := 0; i <= s.cur && i < len(s.chunks); i++ {
		clear(s.chunks[i])
		s.chunks[i] = s.chunks[i][:0]
	}
	s.cur = 0
}

// node returns a pointer to a copy of v in s.
func node[T any](s *slab[T], v T) *T {
	n := &s.alloc(1)[0]
	*n = v
	return n
}

// parsers recycles the parsers of ParseScoped and ParseBody, with their
// token ring and their slabs.
var parsers = sync.Pool{New: func() any { return &Parser{win: make([]token.Token, 8)} }}

// ParseScoped parses a whole file as ParseFile does and calls use with the
// tree if the file parses without error. The tree lives in a recycled
// parser's slabs and is valid only while use runs: ParseScoped takes the
// memory back when use returns, so use must keep nothing of the tree,
// only what it builds from it, such as where a body starts for ParseBody.
func ParseScoped(filename, src string, use func(*ast.File)) error {
	p := parsers.Get().(*Parser)
	defer p.release()
	p.file = filename
	p.lx.Reset(filename, src)
	p.lex()
	f := p.parseFile()
	err := p.err()
	if err == nil {
		use(f)
	}
	return err
}

// BodyStart locates a function body's opening brace: its byte offset in
// the source (FuncDecl.BodyOff) and its line and column (columns count
// runes).
type BodyStart struct {
	Off, Line, Col int
}

// ParseBody parses the function body at start and calls use with it, on
// the terms of ParseScoped. Every body of a file that ParseScoped accepts
// parses without error.
func ParseBody(filename, src string, start BodyStart, use func(*ast.BlockStmt)) error {
	p := parsers.Get().(*Parser)
	defer p.release()
	p.file = filename
	p.lx.Reset(filename, src)
	p.lx.Seek(start.Off, start.Line, start.Col)
	p.lex()
	b := p.parseBlock()
	err := p.err()
	if err == nil {
		use(b)
	}
	return err
}

// maxPooledTokens bounds the files whose parsers go back to the pool: a
// parser keeps the slabs of the largest tree it has built, ~30 bytes a
// token, so one huge file would otherwise pin its tree's memory.
const maxPooledTokens = 1 << 16

// release empties a parser from parsers of everything that points into
// the source or the tree and returns it to the pool, unless it read more
// than maxPooledTokens tokens.
func (p *Parser) release() {
	if p.lexed > maxPooledTokens {
		return
	}
	clear(p.win)
	p.lx.Reset("", "")
	p.pos, p.lexed, p.file, p.errs, p.depth, p.stopped = 0, 0, "", nil, 0, false
	p.tree.reset()
	parsers.Put(p)
}
