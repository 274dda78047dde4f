// Package lower translates the mini-C AST into the abstract IR of the RID
// paper (internal/ir).
//
// The translation implements the paper's program abstraction (§4.1 and
// §5.4): relational comparisons, field loads, calls, branches and returns
// are preserved; arithmetic, bit operations, stores through pointers and
// array indexing are abstracted to random (non-deterministic) values;
// assert() becomes an assume on the path; short-circuit && and || become
// explicit control flow.
package lower

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/parser"
	"repro/internal/frontend/token"
	"repro/internal/ir"
)

// Options tunes the abstraction.
type Options struct {
	// PreserveBitTests models "x & CONST" as a stable uninterpreted term
	// keyed by the operand and mask instead of a fresh random value. Two
	// syntactically identical bit tests then denote the same symbolic
	// value, which makes mask-guarded path pairs distinguishable and
	// eliminates the §6.4 bit-operation false positives — the extension
	// the paper sketches as future work ("SMT BitVector Theory"). Off by
	// default for fidelity with the paper's evaluation.
	PreserveBitTests bool
}

// IntoOpts lowers a parsed file into an existing program with explicit
// abstraction options. Each function's body is built on first use.
func IntoOpts(p *ir.Program, f *ast.File, opts Options) error {
	lf, err := lowerFile(f, opts)
	if err != nil {
		return err
	}
	lf.mergeInto(p)
	return nil
}

// loweredFile is one file's IR as plain slices: its function definitions
// in definition order and its extern declarations, with the name, source
// and options it was lowered from. Merging files in name order rebuilds
// the program a single pass over their declarations would: definitions
// are last-wins and a definition anywhere removes an extern.
type loweredFile struct {
	name, src string
	opts      Options
	funcs     []*ir.Func
	externs   []string
}

func lowerFile(f *ast.File, opts Options) (loweredFile, error) {
	nfuncs, nexterns := 0, 0
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			nfuncs++
		} else if ok {
			nexterns++
		}
	}
	lf := loweredFile{opts: opts, funcs: make([]*ir.Func, 0, nfuncs)}
	if nexterns > 0 {
		lf.externs = make([]string, 0, nexterns)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue // globals are havoc; nothing to lower
		}
		if fd.Body == nil {
			lf.externs = append(lf.externs, fd.Name)
			continue
		}
		fn, err := declare(fd, f.Name, opts)
		if err != nil {
			return loweredFile{}, err
		}
		lf.funcs = append(lf.funcs, fn)
	}
	return lf, nil
}

func (lf *loweredFile) mergeInto(p *ir.Program) {
	for _, fn := range lf.funcs {
		p.Add(fn)
	}
	for _, name := range lf.externs {
		p.AddExtern(name)
	}
}

// Memo reuses lowered files across Load calls: a file whose name,
// source text and options all equal an entry from the memo's previous
// successful call keeps that call's *ir.Func values, bodies built so far
// included, instead of being parsed again. It holds only the file set of
// that most recent call, so it never outgrows one request's IR. A body is
// built once (ir.Func.Body), never written afterwards and holds no
// interned expressions, so concurrent callers may share it. A Memo is safe
// for concurrent use; a nil *Memo caches nothing.
type Memo struct {
	mu    sync.Mutex
	files []loweredFile // sorted by name; never modified once stored
}

// Load parses a file set (name → source) and merges it into p. Files are
// parsed in sorted-name order, so last-wins duplicate definitions merge
// deterministically. Parsing is eager: every parse error and every goto to
// an undefined label is returned here, and then p is left as it was.
// Lowering is not: each function carries its signature and Calls, and its
// body is lowered and validated the first time ir.Func.Body is called.
// Load is the one loader from source text to IR, so every analysis mode
// lowers with the same options. reused counts the files taken from the
// memo; the rest were parsed. A failed call leaves the memo as it was.
func (m *Memo) Load(p *ir.Program, files map[string]string, opts Options) (reused int, err error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var prev []loweredFile
	if m != nil {
		m.mu.Lock()
		prev = m.files
		m.mu.Unlock()
	}
	next := make([]loweredFile, 0, len(names))
	for _, n := range names {
		src := files[n]
		// Both lists are sorted, so prev[0] is the only candidate for n.
		for len(prev) > 0 && prev[0].name < n {
			prev = prev[1:]
		}
		var lf loweredFile
		if len(prev) > 0 && prev[0].name == n && prev[0].src == src && prev[0].opts == opts {
			lf = prev[0]
			reused++
		} else {
			f, err := parser.ParseFile(n, src)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", n, err)
			}
			if lf, err = lowerFile(f, opts); err != nil {
				return 0, fmt.Errorf("lower %s: %w", n, err)
			}
			lf.name, lf.src = n, src
		}
		next = append(next, lf)
	}
	for i := range next {
		next[i].mergeInto(p)
	}
	if m != nil {
		m.mu.Lock()
		m.files = next
		m.mu.Unlock()
	}
	return reused, nil
}

// Program loads a file set into a new program, without a memo.
func Program(files map[string]string, opts Options) (*ir.Program, error) {
	p := ir.NewProgram()
	if _, err := (*Memo)(nil).Load(p, files, opts); err != nil {
		return nil, err
	}
	return p, nil
}

// SourceString parses and lowers one mini-C source buffer with default
// options; filename is used in positions. It is the one-call entry used by
// tests, examples and tools.
func SourceString(filename, src string) (*ir.Program, error) {
	return Program(map[string]string{filename: src}, Options{})
}

// ---------------------------------------------------------------------------

type loweringError struct {
	pos token.Pos
	msg string
}

func (e *loweringError) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.msg) }

type funcLowerer struct {
	opts    Options
	fn      *ir.Body
	cur     *ir.Block
	ntemp   int
	labels  map[string]*ir.Block
	gotos   []pendingGoto
	brk     []*ir.Block // break target stack
	cont    []*ir.Block // continue target stack
	deadCnt int
}

type pendingGoto struct {
	block *ir.Block // block whose terminator must be patched
	label string
}

// declare returns fd's function with its signature and Calls filled in
// and its body deferred to lowerBody. Calls and the label check walk the
// syntax tree the way lowering will, skipping the operands lowering never
// evaluates, so Calls is exactly the callee set of the lowered body. The
// only error is a goto to a label fd does not define.
func declare(fd *ast.FuncDecl, srcFile string, opts Options) (*ir.Func, error) {
	fn := &ir.Func{
		Name:    fd.Name,
		HasRet:  !fd.Result.IsVoid(),
		Pos:     fd.P,
		SrcFile: srcFile,
	}
	for i, prm := range fd.Params {
		name := prm.Name
		if name == "" {
			name = fmt.Sprintf("arg%d", i)
		}
		fn.Params = append(fn.Params, name)
	}
	var gotos []*ast.GotoStmt
	var labels []string
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn.Calls = append(fn.Calls, n.Fun)
		case *ast.GotoStmt:
			gotos = append(gotos, n)
		case *ast.LabeledStmt:
			labels = append(labels, n.Label)
		case *ast.IncDecExpr:
			return false // only an identifier operand is lowered, as random
		case *ast.AssignExpr:
			switch n.LHS.(type) {
			case *ast.Ident, *ast.FieldExpr, *ast.IndexExpr, *ast.UnaryExpr:
			default:
				ast.Inspect(n.RHS, visit) // any other target is dropped
				return false
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	for _, g := range gotos {
		if !slices.Contains(labels, g.Label) {
			return nil, &loweringError{g.P, fmt.Sprintf("goto to undefined label %q", g.Label)}
		}
	}
	slices.Sort(fn.Calls)
	fn.Calls = slices.Compact(fn.Calls)
	fn.Defer(func() *ir.Body { return lowerBody(fd, opts) })
	return fn, nil
}

// lowerBody lowers fd's body. declare has checked its gotos.
func lowerBody(fd *ast.FuncDecl, opts Options) *ir.Body {
	fn := &ir.Body{}
	lw := &funcLowerer{opts: opts, fn: fn, labels: make(map[string]*ir.Block)}
	lw.cur = fn.NewBlock()
	lw.stmt(fd.Body)
	lw.terminateWithReturn(fd.P)
	for _, g := range lw.gotos {
		g.block.Terminator().Target = lw.labels[g.label].Index
	}
	// Seal dead continuation blocks (after return/goto/break) so every
	// block satisfies the terminator invariant.
	for _, b := range fn.Blocks {
		if b.Terminator() == nil {
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpReturn, HasVal: false, Pos: fd.P})
		}
	}
	// Count conditional branches for the §5.2 category-2 complexity gate.
	for _, b := range fn.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpBranchCond && t.True != t.False {
			fn.NumConds++
		}
	}
	return fn
}

func (lw *funcLowerer) emit(in *ir.Instr) {
	if lw.cur.Terminator() != nil {
		// Unreachable code after return/goto: drop it.
		lw.deadCnt++
		return
	}
	lw.cur.Instrs = append(lw.cur.Instrs, in)
}

func (lw *funcLowerer) temp() string {
	lw.ntemp++
	return "%t" + strconv.Itoa(lw.ntemp)
}

// jump terminates the current block with an unconditional branch if it has
// no terminator yet, then makes target the current block.
func (lw *funcLowerer) jumpTo(target *ir.Block) {
	if lw.cur.Terminator() == nil {
		lw.emit(&ir.Instr{Op: ir.OpBranch, Target: target.Index})
	}
	lw.cur = target
}

// terminateWithReturn seals the (possibly fallen-off) end of the function.
func (lw *funcLowerer) terminateWithReturn(pos token.Pos) {
	if lw.cur.Terminator() == nil {
		lw.emit(&ir.Instr{Op: ir.OpReturn, HasVal: false, Pos: pos})
	}
}

// ---------------------------------------------------------------------------
// Statements

func (lw *funcLowerer) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.Stmts {
			lw.stmt(inner)
		}
	case *ast.EmptyStmt:
	case *ast.DeclStmt:
		if s.Init != nil {
			lw.exprInto(s.Name, s.Init)
		}
	case *ast.ExprStmt:
		lw.exprForEffect(s.X)
	case *ast.IfStmt:
		lw.ifStmt(s)
	case *ast.WhileStmt:
		lw.whileStmt(s)
	case *ast.DoWhileStmt:
		lw.doWhileStmt(s)
	case *ast.ForStmt:
		lw.forStmt(s)
	case *ast.SwitchStmt:
		lw.switchStmt(s)
	case *ast.GotoStmt:
		if lw.cur.Terminator() == nil {
			lw.emit(&ir.Instr{Op: ir.OpBranch, Target: -1, Pos: s.P})
			lw.gotos = append(lw.gotos, pendingGoto{lw.cur, s.Label})
			lw.cur = lw.fn.NewBlock() // dead continuation
		}
	case *ast.LabeledStmt:
		target := lw.fn.NewBlock()
		lw.labels[s.Label] = target
		lw.jumpTo(target)
		lw.stmt(s.Stmt)
	case *ast.ReturnStmt:
		if lw.cur.Terminator() != nil {
			return
		}
		if s.X != nil {
			v := lw.expr(s.X)
			lw.emit(&ir.Instr{Op: ir.OpReturn, Val: v, HasVal: true, Pos: s.P})
		} else {
			lw.emit(&ir.Instr{Op: ir.OpReturn, HasVal: false, Pos: s.P})
		}
		lw.cur = lw.fn.NewBlock()
	case *ast.BreakStmt:
		if n := len(lw.brk); n > 0 && lw.cur.Terminator() == nil {
			lw.emit(&ir.Instr{Op: ir.OpBranch, Target: lw.brk[n-1].Index, Pos: s.P})
			lw.cur = lw.fn.NewBlock() // dead continuation
		}
	case *ast.ContinueStmt:
		if n := len(lw.cont); n > 0 && lw.cur.Terminator() == nil {
			lw.emit(&ir.Instr{Op: ir.OpBranch, Target: lw.cont[n-1].Index, Pos: s.P})
			lw.cur = lw.fn.NewBlock()
		}
	case *ast.AssertStmt:
		c := lw.condValue(s.X)
		lw.emit(&ir.Instr{Op: ir.OpAssume, Cond: c, Pos: s.P})
	case *ast.AsmStmt:
		// Opaque; no effect in the abstraction.
	default:
		// Unknown statement kinds are abstracted away.
	}
}

func (lw *funcLowerer) ifStmt(s *ast.IfStmt) {
	thenB := lw.fn.NewBlock()
	exitB := lw.fn.NewBlock()
	elseB := exitB
	if s.Else != nil {
		elseB = lw.fn.NewBlock()
	}
	lw.cond(s.Cond, thenB, elseB)
	lw.cur = thenB
	lw.stmt(s.Then)
	lw.jumpTo(exitB)
	if s.Else != nil {
		lw.cur = elseB
		lw.stmt(s.Else)
		lw.jumpTo(exitB)
	}
	lw.cur = exitB
}

func (lw *funcLowerer) whileStmt(s *ast.WhileStmt) {
	condB := lw.fn.NewBlock()
	bodyB := lw.fn.NewBlock()
	exitB := lw.fn.NewBlock()
	lw.jumpTo(condB)
	lw.cond(s.Cond, bodyB, exitB)
	lw.brk = append(lw.brk, exitB)
	lw.cont = append(lw.cont, condB)
	lw.cur = bodyB
	lw.stmt(s.Body)
	lw.jumpTo(condB) // back edge
	lw.brk = lw.brk[:len(lw.brk)-1]
	lw.cont = lw.cont[:len(lw.cont)-1]
	lw.cur = exitB
}

func (lw *funcLowerer) doWhileStmt(s *ast.DoWhileStmt) {
	bodyB := lw.fn.NewBlock()
	condB := lw.fn.NewBlock()
	exitB := lw.fn.NewBlock()
	lw.jumpTo(bodyB)
	lw.brk = append(lw.brk, exitB)
	lw.cont = append(lw.cont, condB)
	lw.stmt(s.Body)
	lw.jumpTo(condB)
	lw.cond(s.Cond, bodyB, exitB) // back edge on true
	lw.brk = lw.brk[:len(lw.brk)-1]
	lw.cont = lw.cont[:len(lw.cont)-1]
	lw.cur = exitB
}

func (lw *funcLowerer) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		lw.stmt(s.Init)
	}
	condB := lw.fn.NewBlock()
	bodyB := lw.fn.NewBlock()
	postB := lw.fn.NewBlock()
	exitB := lw.fn.NewBlock()
	lw.jumpTo(condB)
	if s.Cond != nil {
		lw.cond(s.Cond, bodyB, exitB)
	} else {
		lw.emit(&ir.Instr{Op: ir.OpBranch, Target: bodyB.Index})
	}
	lw.brk = append(lw.brk, exitB)
	lw.cont = append(lw.cont, postB)
	lw.cur = bodyB
	lw.stmt(s.Body)
	lw.jumpTo(postB)
	if s.Post != nil {
		lw.exprForEffect(s.Post)
	}
	lw.jumpTo(condB) // back edge
	lw.brk = lw.brk[:len(lw.brk)-1]
	lw.cont = lw.cont[:len(lw.cont)-1]
	lw.cur = exitB
}

func (lw *funcLowerer) switchStmt(s *ast.SwitchStmt) {
	tag := lw.expr(s.Tag)
	exitB := lw.fn.NewBlock()
	lw.brk = append(lw.brk, exitB)

	n := len(s.Cases)
	bodies := make([]*ir.Block, n)
	for i := range s.Cases {
		bodies[i] = lw.fn.NewBlock()
	}
	// Chain of tests; default (if any) is the final fallback.
	defaultIdx := -1
	for i, c := range s.Cases {
		if c.IsDefault {
			defaultIdx = i
		}
	}
	fallback := exitB
	if defaultIdx >= 0 {
		fallback = bodies[defaultIdx]
	}
	for i, c := range s.Cases {
		if c.IsDefault {
			continue
		}
		v := lw.expr(c.Value)
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpCompare, Dst: t, Pred: ir.EQ, A: tag, B: v, Pos: c.P})
		next := lw.fn.NewBlock()
		lw.emit(&ir.Instr{Op: ir.OpBranchCond, Cond: ir.Var(t), True: bodies[i].Index, False: next.Index, Pos: c.P})
		lw.cur = next
	}
	lw.jumpTo(fallback)
	// Case bodies with C fallthrough.
	for i, c := range s.Cases {
		lw.cur = bodies[i]
		for _, st := range c.Body {
			lw.stmt(st)
		}
		if i+1 < n {
			lw.jumpTo(bodies[i+1])
		} else {
			lw.jumpTo(exitB)
		}
	}
	lw.brk = lw.brk[:len(lw.brk)-1]
	lw.cur = exitB
}

// ---------------------------------------------------------------------------
// Conditions

// cond lowers a boolean expression as control flow into trueB / falseB.
func (lw *funcLowerer) cond(e ast.Expr, trueB, falseB *ir.Block) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			mid := lw.fn.NewBlock()
			lw.cond(e.X, mid, falseB)
			lw.cur = mid
			lw.cond(e.Y, trueB, falseB)
			return
		case token.LOR:
			mid := lw.fn.NewBlock()
			lw.cond(e.X, trueB, mid)
			lw.cur = mid
			lw.cond(e.Y, trueB, falseB)
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			lw.cond(e.X, falseB, trueB)
			return
		}
	}
	v := lw.condValue(e)
	lw.emit(&ir.Instr{Op: ir.OpBranchCond, Cond: v, True: trueB.Index, False: falseB.Index, Pos: e.Pos()})
}

// condValue lowers a boolean expression to a value suitable for branch or
// assume: a comparison temp when the source has a relational operator, or
// the raw value otherwise (the symbolic executor treats a non-boolean
// value v as v != 0).
func (lw *funcLowerer) condValue(e ast.Expr) ir.Value {
	if be, ok := e.(*ast.BinaryExpr); ok {
		if pred, isCmp := ir.PredFromToken(be.Op); isCmp {
			a := lw.expr(be.X)
			b := lw.expr(be.Y)
			t := lw.temp()
			lw.emit(&ir.Instr{Op: ir.OpCompare, Dst: t, Pred: pred, A: a, B: b, Pos: be.P})
			return ir.Var(t)
		}
	}
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.NOT {
		// !x as a value: x == 0.
		a := lw.expr(ue.X)
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpCompare, Dst: t, Pred: ir.EQ, A: a, B: ir.Int(0), Pos: ue.P})
		return ir.Var(t)
	}
	return lw.expr(e)
}

// ---------------------------------------------------------------------------
// Expressions

// exprForEffect lowers an expression whose value is discarded.
func (lw *funcLowerer) exprForEffect(e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		args := lw.args(e.Args)
		lw.emit(&ir.Instr{Op: ir.OpCall, Fn: e.Fun, Args: args, Pos: e.P})
	case *ast.AssignExpr:
		lw.assign(e)
	case *ast.IncDecExpr:
		lw.incDec(e)
	default:
		_ = lw.expr(e) // evaluate for side effects (nested calls)
	}
}

func (lw *funcLowerer) args(in []ast.Expr) []ir.Value {
	out := make([]ir.Value, len(in))
	for i, a := range in {
		out[i] = lw.expr(a)
	}
	return out
}

func (lw *funcLowerer) assign(e *ast.AssignExpr) {
	switch lhs := e.LHS.(type) {
	case *ast.Ident:
		if e.Op != token.ASSIGN {
			// x += e is arithmetic: abstracted to random (§4.1 — refcounts
			// are only changed via APIs, plain arithmetic is ignored).
			_ = lw.expr(e.RHS)
			lw.emit(&ir.Instr{Op: ir.OpRandom, Dst: lhs.Name, Pos: e.P})
			return
		}
		lw.exprInto(lhs.Name, e.RHS)
	case *ast.FieldExpr, *ast.IndexExpr, *ast.UnaryExpr:
		// Store through memory: outside the abstraction (§5.4, first
		// limitation). Evaluate both sides for call effects and drop.
		_ = lw.expr(e.LHS)
		_ = lw.expr(e.RHS)
	default:
		_ = lw.expr(e.RHS)
	}
}

func (lw *funcLowerer) incDec(e *ast.IncDecExpr) {
	if id, ok := e.X.(*ast.Ident); ok {
		lw.emit(&ir.Instr{Op: ir.OpRandom, Dst: id.Name, Pos: e.P})
	}
}

// exprInto lowers e and binds the result to the named destination,
// emitting the defining instruction directly into dst when possible.
func (lw *funcLowerer) exprInto(dst string, e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		args := lw.args(e.Args)
		lw.emit(&ir.Instr{Op: ir.OpCall, Dst: dst, Fn: e.Fun, Args: args, Pos: e.P})
	case *ast.FieldExpr:
		obj := lw.expr(e.X)
		lw.emit(&ir.Instr{Op: ir.OpLoadField, Dst: dst, Obj: obj, Field: e.Name, Pos: e.P})
	case *ast.RandomExpr:
		lw.emit(&ir.Instr{Op: ir.OpRandom, Dst: dst, Pos: e.P})
	case *ast.BinaryExpr:
		if pred, isCmp := ir.PredFromToken(e.Op); isCmp {
			a := lw.expr(e.X)
			b := lw.expr(e.Y)
			lw.emit(&ir.Instr{Op: ir.OpCompare, Dst: dst, Pred: pred, A: a, B: b, Pos: e.P})
			return
		}
		v := lw.expr(e)
		lw.emit(&ir.Instr{Op: ir.OpAssign, Dst: dst, Val: v, Pos: e.P})
	default:
		v := lw.expr(e)
		lw.emit(&ir.Instr{Op: ir.OpAssign, Dst: dst, Val: v, Pos: e.Pos()})
	}
}

// expr lowers an expression to a Value, emitting instructions as needed.
func (lw *funcLowerer) expr(e ast.Expr) ir.Value {
	switch e := e.(type) {
	case *ast.Ident:
		return ir.Var(e.Name)
	case *ast.IntLit:
		return ir.Int(e.Value)
	case *ast.BoolLit:
		return ir.Bool(e.Value)
	case *ast.NullLit:
		return ir.Null()
	case *ast.RandomExpr:
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpRandom, Dst: t, Pos: e.P})
		return ir.Var(t)
	case *ast.FieldExpr:
		obj := lw.expr(e.X)
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: obj, Field: e.Name, Pos: e.P})
		return ir.Var(t)
	case *ast.CallExpr:
		args := lw.args(e.Args)
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpCall, Dst: t, Fn: e.Fun, Args: args, Pos: e.P})
		return ir.Var(t)
	case *ast.UnaryExpr:
		return lw.unary(e)
	case *ast.BinaryExpr:
		return lw.binary(e)
	case *ast.AssignExpr:
		lw.assign(e)
		if id, ok := e.LHS.(*ast.Ident); ok {
			return ir.Var(id.Name)
		}
		return lw.havoc(e.P)
	case *ast.IncDecExpr:
		lw.incDec(e)
		if id, ok := e.X.(*ast.Ident); ok {
			return ir.Var(id.Name)
		}
		return lw.havoc(e.P)
	case *ast.IndexExpr:
		_ = lw.expr(e.X)
		_ = lw.expr(e.Index)
		return lw.havoc(e.P)
	case *ast.CondExpr:
		// No ternary in the grammar today; kept for completeness.
		_ = lw.expr(e.Cond)
		_ = lw.expr(e.Then)
		_ = lw.expr(e.Else)
		return lw.havoc(e.P)
	}
	return lw.havoc(e.Pos())
}

// havoc materializes an unknown value (the random generator of Figure 3).
func (lw *funcLowerer) havoc(pos token.Pos) ir.Value {
	t := lw.temp()
	lw.emit(&ir.Instr{Op: ir.OpRandom, Dst: t, Pos: pos})
	return ir.Var(t)
}

func (lw *funcLowerer) unary(e *ast.UnaryExpr) ir.Value {
	switch e.Op {
	case token.NOT:
		a := lw.expr(e.X)
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpCompare, Dst: t, Pred: ir.EQ, A: a, B: ir.Int(0), Pos: e.P})
		return ir.Var(t)
	case token.MINUS:
		// Negation of a literal stays precise; otherwise havoc.
		if lit, ok := e.X.(*ast.IntLit); ok {
			return ir.Int(-lit.Value)
		}
		_ = lw.expr(e.X)
		return lw.havoc(e.P)
	case token.AMP:
		// &x->f denotes the field object itself: same symbolic identity as
		// the field load (this is how "&intf->dev" reaches DPM APIs).
		if fe, ok := e.X.(*ast.FieldExpr); ok {
			obj := lw.expr(fe.X)
			t := lw.temp()
			lw.emit(&ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: obj, Field: fe.Name, Pos: e.P})
			return ir.Var(t)
		}
		_ = lw.expr(e.X)
		return lw.havoc(e.P)
	case token.STAR:
		// Pointer dereference: model as loading the distinguished "deref"
		// field so *p keeps a stable symbolic identity.
		obj := lw.expr(e.X)
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: obj, Field: "*", Pos: e.P})
		return ir.Var(t)
	case token.TILDE:
		_ = lw.expr(e.X)
		return lw.havoc(e.P)
	}
	_ = lw.expr(e.X)
	return lw.havoc(e.P)
}

func (lw *funcLowerer) binary(e *ast.BinaryExpr) ir.Value {
	if pred, isCmp := ir.PredFromToken(e.Op); isCmp {
		a := lw.expr(e.X)
		b := lw.expr(e.Y)
		t := lw.temp()
		lw.emit(&ir.Instr{Op: ir.OpCompare, Dst: t, Pred: pred, A: a, B: b, Pos: e.P})
		return ir.Var(t)
	}
	switch e.Op {
	case token.LAND, token.LOR:
		// Value position: lower via control flow into a temp.
		t := lw.temp()
		trueB := lw.fn.NewBlock()
		falseB := lw.fn.NewBlock()
		exitB := lw.fn.NewBlock()
		lw.cond(e, trueB, falseB)
		lw.cur = trueB
		lw.emit(&ir.Instr{Op: ir.OpAssign, Dst: t, Val: ir.Bool(true), Pos: e.P})
		lw.jumpTo(exitB)
		lw.cur = falseB
		lw.emit(&ir.Instr{Op: ir.OpAssign, Dst: t, Val: ir.Bool(false), Pos: e.P})
		lw.jumpTo(exitB)
		lw.cur = exitB
		return ir.Var(t)
	}
	if lw.opts.PreserveBitTests && e.Op == token.AMP {
		// "x & CONST": model as the stable pseudo-field x.&CONST so two
		// identical bit tests denote one symbolic value (see Options).
		if lit, ok := e.Y.(*ast.IntLit); ok {
			base := lw.expr(e.X)
			t := lw.temp()
			lw.emit(&ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: base, Field: fmt.Sprintf("&%d", lit.Value), Pos: e.P})
			return ir.Var(t)
		}
		if lit, ok := e.X.(*ast.IntLit); ok {
			base := lw.expr(e.Y)
			t := lw.temp()
			lw.emit(&ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: base, Field: fmt.Sprintf("&%d", lit.Value), Pos: e.P})
			return ir.Var(t)
		}
	}
	// All remaining binary operators (arithmetic, bit ops, shifts) are
	// outside the abstraction: evaluate operands for effect, havoc result.
	// This is the documented false-positive source of §6.4.
	_ = lw.expr(e.X)
	_ = lw.expr(e.Y)
	return lw.havoc(e.P)
}
