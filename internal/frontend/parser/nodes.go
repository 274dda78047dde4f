package parser

import (
	"errors"
	"sync"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/token"
)

// nodes is the memory a parse builds its syntax tree in: the statement
// and expression nodes in one slab per type, and every list (a block's
// statements, a call's arguments, a switch's clauses) carved from a slab
// once it is complete. While a list is being parsed, its elements wait on
// a stack, since the lists of nested constructs are built inside it.
// A tree from ParseFile keeps its slabs; ParseBody resets and reuses them.
type nodes struct {
	blocks    slab[ast.BlockStmt]
	decls     slab[ast.DeclStmt]
	exprStmts slab[ast.ExprStmt]
	ifs       slab[ast.IfStmt]
	whiles    slab[ast.WhileStmt]
	doWhiles  slab[ast.DoWhileStmt]
	fors      slab[ast.ForStmt]
	gotos     slab[ast.GotoStmt]
	labeled   slab[ast.LabeledStmt]
	returns   slab[ast.ReturnStmt]
	breaks    slab[ast.BreakStmt]
	continues slab[ast.ContinueStmt]
	asserts   slab[ast.AssertStmt]
	asms      slab[ast.AsmStmt]
	empties   slab[ast.EmptyStmt]
	switches  slab[ast.SwitchStmt]
	clauses   slab[ast.CaseClause]
	idents    slab[ast.Ident]
	ints      slab[ast.IntLit]
	bools     slab[ast.BoolLit]
	nulls     slab[ast.NullLit]
	unaries   slab[ast.UnaryExpr]
	binaries  slab[ast.BinaryExpr]
	assigns   slab[ast.AssignExpr]
	incDecs   slab[ast.IncDecExpr]
	calls     slab[ast.CallExpr]
	fields    slab[ast.FieldExpr]
	indexes   slab[ast.IndexExpr]
	randoms   slab[ast.RandomExpr]

	stmtLists slab[ast.Stmt]
	exprLists slab[ast.Expr]
	caseLists slab[*ast.CaseClause]
	stmts     []ast.Stmt // the statement stack
	exprs     []ast.Expr // the argument stack
	cases     []*ast.CaseClause
}

// reset zeroes every node and list handed out, so that nothing the slabs
// keep for reuse points into a source or a tree, and makes them reusable.
func (t *nodes) reset() {
	t.blocks.reset()
	t.decls.reset()
	t.exprStmts.reset()
	t.ifs.reset()
	t.whiles.reset()
	t.doWhiles.reset()
	t.fors.reset()
	t.gotos.reset()
	t.labeled.reset()
	t.returns.reset()
	t.breaks.reset()
	t.continues.reset()
	t.asserts.reset()
	t.asms.reset()
	t.empties.reset()
	t.switches.reset()
	t.clauses.reset()
	t.idents.reset()
	t.ints.reset()
	t.bools.reset()
	t.nulls.reset()
	t.unaries.reset()
	t.binaries.reset()
	t.assigns.reset()
	t.incDecs.reset()
	t.calls.reset()
	t.fields.reset()
	t.indexes.reset()
	t.randoms.reset()
	t.stmtLists.reset()
	t.exprLists.reset()
	t.caseLists.reset()
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

// bodyParsers recycles the parsers ParseBody uses, with their token ring
// and their slabs.
var bodyParsers = sync.Pool{New: func() any { return &Parser{win: make([]token.Token, 8)} }}

// ParseBody parses the function body that Recognize located at start and
// calls use with it. The tree lives in a recycled parser's slabs and is
// valid only while use runs: ParseBody takes the memory back when use
// returns, so use must keep nothing of the tree, only what it builds from
// it. The recognizer accepted the whole file, so an error here means the
// two disagree; use is not called then.
func ParseBody(filename, src string, start BodyStart, use func(*ast.BlockStmt)) error {
	p := bodyParsers.Get().(*Parser)
	p.file = filename
	p.lx.Reset(filename, src)
	p.lx.Seek(start.Off, start.Line, start.Col)
	p.lex()
	b := p.parseBlock()
	var err error
	if errs := append(p.lx.Errors(), p.errs...); len(errs) > 0 {
		err = errors.Join(errs...)
	} else {
		use(b)
	}
	p.release()
	return err
}

// release empties a parser from bodyParsers of everything that points
// into the source or the tree and returns it to the pool.
func (p *Parser) release() {
	clear(p.win)
	p.lx.Reset("", "")
	p.pos, p.lexed, p.file, p.errs, p.panics = 0, 0, "", nil, 0
	p.tree.reset()
	bodyParsers.Put(p)
}
