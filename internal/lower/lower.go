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
	"strings"
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
	lf, err := lowerFile(f, opts, func(fd *ast.FuncDecl, fn *ir.Func) {
		fn.Defer(func() *ir.Body { return lowerBody(fd.Body, fd.P, opts) })
	})
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

// lowerFile declares f's function definitions and externs. Each
// definition gets its signature and Calls, copied out of the tree into
// exact-size arrays of the file's own, and deferBody gives it the builder
// of its body. The only error is a goto to a label its function does not
// define.
func lowerFile(f *ast.File, opts Options, deferBody func(*ast.FuncDecl, *ir.Func)) (loweredFile, error) {
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
	fns := make([]ir.Func, nfuncs)
	dc := declarers.Get().(*declarer)
	defer dc.release()
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue // globals are havoc; nothing to lower
		}
		if fd.Body == nil {
			lf.externs = append(lf.externs, fd.Name)
			continue
		}
		fn := &fns[len(lf.funcs)]
		fn.Name, fn.HasRet, fn.Pos, fn.SrcFile = fd.Name, !fd.Result.IsVoid(), fd.P, f.Name
		if err := dc.declare(fd, fn); err != nil {
			return loweredFile{}, err
		}
		deferBody(fd, fn)
		lf.funcs = append(lf.funcs, fn)
	}
	dc.freeze(lf.funcs)
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

// Load indexes a file set (name → source) and merges it into p. Files are
// read in sorted-name order, so last-wins duplicate definitions merge
// deterministically. Checking is eager: every parse error and every goto
// to an undefined label is returned here, and then p is left as it was.
// Building is not: one parse of each file into recycled memory gives each
// function its signature and Calls, and the function's body is parsed
// again from its place in the source, lowered and validated the first
// time ir.Func.Body is called. Load is the one
// loader from source text to IR, so every analysis mode lowers with the
// same options. reused counts the files taken from the memo; the rest
// were read. A failed call leaves the memo as it was.
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
			if lf, err = loadFile(n, src, opts); err != nil {
				return 0, err
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

// loadFile parses one file into recycled memory and declares its
// functions from that tree, deferring each body to a parse of its own
// from the place the tree recorded. A file that does not parse returns
// that parse's errors.
func loadFile(name, src string, opts Options) (lf loweredFile, err error) {
	perr := parser.ParseScoped(name, src, func(f *ast.File) {
		lf, err = lowerFile(f, opts, func(fd *ast.FuncDecl, fn *ir.Func) {
			start := parser.BodyStart{Off: fd.BodyOff, Line: fd.Body.P.Line, Col: fd.Body.P.Column}
			fn.Defer(func() *ir.Body {
				var body *ir.Body
				err := parser.ParseBody(fn.SrcFile, src, start, func(tree *ast.BlockStmt) {
					body = lowerBody(tree, fn.Pos, opts)
				})
				if err != nil {
					panic(fmt.Sprintf("lower: body of %s does not parse, though its file did: %v", fn.Name, err))
				}
				return body
			})
		})
	})
	if perr != nil {
		return loweredFile{}, fmt.Errorf("parse %s: %w", name, perr)
	}
	if err != nil {
		return loweredFile{}, fmt.Errorf("lower %s: %w", name, err)
	}
	return lf, nil
}

func undefinedLabel(pos token.Pos, label string) error {
	return &loweringError{pos, fmt.Sprintf("goto to undefined label %q", label)}
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

// funcLowerer lowers one body. Its memory is recycled (lowerers): it
// emits instructions into a scratch list in emission order, each tagged
// with its block, and keeps the call arguments of the emitted calls in
// the same order; freeze copies both into the body's own arrays.
type funcLowerer struct {
	opts   Options
	instrs []ir.Instr
	meta   []instrMeta // meta[i] describes instrs[i]
	blocks []blockState
	args   []ir.Value // the emitted calls' arguments, call after call
	stack  []ir.Value // arguments of the calls being lowered
	cur    int        // the block being filled
	ntemp  int
	labels map[string]int
	gotos  []pendingGoto
	brk    []int // break target stack
	cont   []int // continue target stack
}

type instrMeta struct {
	block int32 // the block the instruction belongs to
	nargs int32 // a call's number of arguments
}

type blockState struct {
	n    int  // instructions emitted into the block
	term bool // the last of them is a terminator
}

type pendingGoto struct {
	instr int // index in instrs of the branch to patch
	label string
}

// lowerers recycles funcLowerers with their scratch lists.
var lowerers = sync.Pool{New: func() any { return &funcLowerer{labels: make(map[string]int)} }}

// tempNames holds "%t1", "%t2", ... for the temporaries of all but the
// largest bodies, cut from one string, so naming a temporary allocates
// nothing.
var tempNames = func() []string {
	const n = 1024
	var sb strings.Builder
	ends := make([]int, n+1)
	for i := 1; i <= n; i++ {
		sb.WriteString("%t")
		sb.WriteString(strconv.Itoa(i))
		ends[i] = sb.Len()
	}
	all := sb.String()
	names := make([]string, n+1)
	for i := 1; i <= n; i++ {
		names[i] = all[ends[i-1]:ends[i]]
	}
	return names
}()

// declarer walks function bodies the way lowering will, for their Calls
// and their gotos and labels. Its scratch is recycled (declarers): strs
// holds the parameters and Calls of a file's functions so far, until
// freeze copies them out.
type declarer struct {
	strs   []string
	gotos  []*ast.GotoStmt
	labels []string
}

var declarers = sync.Pool{New: func() any { return new(declarer) }}

// declare gives fn the Params and Calls of fd, as spans of d.strs until
// freeze, and checks fd's gotos. The walk skips the operands lowering
// never evaluates, so Calls is exactly the callee set of the lowered body.
func (d *declarer) declare(fd *ast.FuncDecl, fn *ir.Func) error {
	lo := len(d.strs)
	for i, prm := range fd.Params {
		name := prm.Name
		if name == "" {
			name = fmt.Sprintf("arg%d", i)
		}
		d.strs = append(d.strs, name)
	}
	mid := len(d.strs)
	d.gotos, d.labels = truncate(d.gotos, 0), truncate(d.labels, 0)
	d.walk(fd.Body)
	for _, g := range d.gotos {
		if !slices.Contains(d.labels, g.Label) {
			return undefinedLabel(g.P, g.Label)
		}
	}
	calls := d.strs[mid:]
	slices.Sort(calls)
	d.strs = d.strs[:mid+len(slices.Compact(calls))]
	fn.Params, fn.Calls = d.strs[lo:mid], d.strs[mid:]
	return nil
}

// walk collects the calls under n that lowering evaluates, and n's gotos
// and labels. A nil n is no node of any type, so it adds nothing.
func (d *declarer) walk(n ast.Node) {
	switch n := n.(type) {
	case *ast.BlockStmt:
		for _, s := range n.Stmts {
			d.walk(s)
		}
	case *ast.DeclStmt:
		d.walk(n.Init)
	case *ast.ExprStmt:
		d.walk(n.X)
	case *ast.IfStmt:
		d.walk(n.Cond)
		d.walk(n.Then)
		d.walk(n.Else)
	case *ast.WhileStmt:
		d.walk(n.Cond)
		d.walk(n.Body)
	case *ast.DoWhileStmt:
		d.walk(n.Body)
		d.walk(n.Cond)
	case *ast.ForStmt:
		d.walk(n.Init)
		d.walk(n.Cond)
		d.walk(n.Post)
		d.walk(n.Body)
	case *ast.SwitchStmt:
		d.walk(n.Tag)
		for _, c := range n.Cases {
			d.walk(c.Value)
			for _, s := range c.Body {
				d.walk(s)
			}
		}
	case *ast.LabeledStmt:
		d.labels = append(d.labels, n.Label)
		d.walk(n.Stmt)
	case *ast.GotoStmt:
		d.gotos = append(d.gotos, n)
	case *ast.ReturnStmt:
		d.walk(n.X)
	case *ast.AssertStmt:
		d.walk(n.X)
	case *ast.CallExpr:
		d.strs = append(d.strs, n.Fun)
		for _, a := range n.Args {
			d.walk(a)
		}
	case *ast.UnaryExpr:
		d.walk(n.X)
	case *ast.BinaryExpr:
		d.walk(n.X)
		d.walk(n.Y)
	case *ast.AssignExpr:
		switch n.LHS.(type) {
		case *ast.Ident, *ast.FieldExpr, *ast.IndexExpr, *ast.UnaryExpr:
			d.walk(n.LHS) // any other target is dropped
		}
		d.walk(n.RHS)
	case *ast.IncDecExpr: // only an identifier operand is lowered, as random
	case *ast.FieldExpr:
		d.walk(n.X)
	case *ast.IndexExpr:
		d.walk(n.X)
		d.walk(n.Index)
	}
}

// freeze copies the Params and Calls of fns into one array of exact size,
// each list with its length as capacity and nil when empty.
func (d *declarer) freeze(fns []*ir.Func) {
	all := make([]string, len(d.strs))
	copy(all, d.strs)
	for _, fn := range fns {
		fn.Params, all = cut(all, len(fn.Params))
		fn.Calls, all = cut(all, len(fn.Calls))
	}
}

// cut splits s after its first n strings, the first part capped at n.
func cut(s []string, n int) ([]string, []string) {
	if n == 0 {
		return nil, s
	}
	return s[:n:n], s[n:]
}

// release clears d's scratch of everything that points into a source or
// a tree and returns d to declarers.
func (d *declarer) release() {
	d.strs = truncate(d.strs, 0)
	d.gotos = truncate(d.gotos, 0)
	d.labels = truncate(d.labels, 0)
	declarers.Put(d)
}

// lowerBody lowers the body of the function declared at pos. Its gotos
// have been checked.
func lowerBody(body *ast.BlockStmt, pos token.Pos, opts Options) *ir.Body {
	lw := lowerers.Get().(*funcLowerer)
	lw.opts = opts
	lw.cur = lw.newBlock()
	lw.stmt(body)
	lw.terminateWithReturn(pos)
	for _, g := range lw.gotos {
		lw.instrs[g.instr].Target = lw.labels[g.label]
	}
	fn := lw.freeze(pos)
	lw.release()
	return fn
}

// freeze builds the body from the scratch lists, sealing each block left
// without a terminator (a dead continuation after return, goto or break)
// with a return at pos. The body takes five arrays, each of exact size:
// the instructions grouped by block, the blocks, a pointer to each of
// them, and every call's arguments.
func (lw *funcLowerer) freeze(pos token.Pos) *ir.Body {
	n := len(lw.instrs)
	for _, b := range lw.blocks {
		if !b.term {
			n++
		}
	}
	instrs := make([]ir.Instr, n)
	ptrs := make([]*ir.Instr, n)
	for i := range instrs {
		ptrs[i] = &instrs[i]
	}
	blocks := make([]ir.Block, len(lw.blocks))
	fn := &ir.Body{Blocks: make([]*ir.Block, len(blocks))}
	off := 0
	for i := range lw.blocks {
		b := &lw.blocks[i]
		end := off + b.n
		if !b.term {
			instrs[end] = ir.Instr{Op: ir.OpReturn, HasVal: false, Pos: pos}
			end++
		}
		blocks[i] = ir.Block{Index: i, Instrs: ptrs[off:end:end]}
		fn.Blocks[i] = &blocks[i]
		b.n = off // from here on, the slot of the block's next instruction
		off = end
	}
	args := make([]ir.Value, len(lw.args))
	copy(args, lw.args)
	for i, m := range lw.meta {
		b := &lw.blocks[m.block]
		in := &instrs[b.n]
		b.n++
		*in = lw.instrs[i]
		if in.Op == ir.OpCall {
			in.Args, args = args[:m.nargs:m.nargs], args[m.nargs:]
		}
	}
	// Count conditional branches for the §5.2 category-2 complexity gate.
	for _, b := range fn.Blocks {
		if t := b.Terminator(); t.Op == ir.OpBranchCond && t.True != t.False {
			fn.NumConds++
		}
	}
	return fn
}

// release clears what lw holds of the body it lowered and returns it to
// lowerers.
func (lw *funcLowerer) release() {
	lw.instrs = truncate(lw.instrs, 0)
	lw.meta = lw.meta[:0]
	lw.blocks = lw.blocks[:0]
	lw.args = truncate(lw.args, 0)
	lw.gotos = truncate(lw.gotos, 0)
	lw.brk, lw.cont = lw.brk[:0], lw.cont[:0]
	clear(lw.labels)
	lw.ntemp = 0
	lowerers.Put(lw)
}

// truncate cuts s to length n, zeroing the entries it drops.
func truncate[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

func (lw *funcLowerer) newBlock() int {
	lw.blocks = append(lw.blocks, blockState{})
	return len(lw.blocks) - 1
}

// terminated reports whether the current block has its terminator.
func (lw *funcLowerer) terminated() bool { return lw.blocks[lw.cur].term }

// emit appends in to the current block and reports whether it did: code
// after a terminator is unreachable and dropped.
func (lw *funcLowerer) emit(in ir.Instr) bool {
	b := &lw.blocks[lw.cur]
	if b.term {
		return false
	}
	b.n++
	b.term = in.IsTerminator()
	lw.instrs = append(lw.instrs, in)
	lw.meta = append(lw.meta, instrMeta{block: int32(lw.cur)})
	return true
}

// pushArgs lowers a call's arguments onto the argument stack and returns
// where they start.
func (lw *funcLowerer) pushArgs(args []ast.Expr) int {
	mark := len(lw.stack)
	for _, a := range args {
		v := lw.expr(a)
		lw.stack = append(lw.stack, v)
	}
	return mark
}

// emitCall emits the call in with the arguments pushed since mark.
func (lw *funcLowerer) emitCall(in ir.Instr, mark int) {
	if lw.emit(in) {
		lw.args = append(lw.args, lw.stack[mark:]...)
		lw.meta[len(lw.meta)-1].nargs = int32(len(lw.stack) - mark)
	}
	lw.stack = truncate(lw.stack, mark)
}

func (lw *funcLowerer) temp() string {
	lw.ntemp++
	if lw.ntemp < len(tempNames) {
		return tempNames[lw.ntemp]
	}
	return "%t" + strconv.Itoa(lw.ntemp)
}

// jump terminates the current block with an unconditional branch if it has
// no terminator yet, then makes target the current block.
func (lw *funcLowerer) jumpTo(target int) {
	lw.emit(ir.Instr{Op: ir.OpBranch, Target: target})
	lw.cur = target
}

// terminateWithReturn seals the (possibly fallen-off) end of the function.
func (lw *funcLowerer) terminateWithReturn(pos token.Pos) {
	lw.emit(ir.Instr{Op: ir.OpReturn, HasVal: false, Pos: pos})
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
		if lw.emit(ir.Instr{Op: ir.OpBranch, Target: -1, Pos: s.P}) {
			lw.gotos = append(lw.gotos, pendingGoto{len(lw.instrs) - 1, s.Label})
			lw.cur = lw.newBlock() // dead continuation
		}
	case *ast.LabeledStmt:
		target := lw.newBlock()
		lw.labels[s.Label] = target
		lw.jumpTo(target)
		lw.stmt(s.Stmt)
	case *ast.ReturnStmt:
		if lw.terminated() {
			return
		}
		if s.X != nil {
			v := lw.expr(s.X)
			lw.emit(ir.Instr{Op: ir.OpReturn, Val: v, HasVal: true, Pos: s.P})
		} else {
			lw.emit(ir.Instr{Op: ir.OpReturn, HasVal: false, Pos: s.P})
		}
		lw.cur = lw.newBlock()
	case *ast.BreakStmt:
		if n := len(lw.brk); n > 0 && !lw.terminated() {
			lw.emit(ir.Instr{Op: ir.OpBranch, Target: lw.brk[n-1], Pos: s.P})
			lw.cur = lw.newBlock() // dead continuation
		}
	case *ast.ContinueStmt:
		if n := len(lw.cont); n > 0 && !lw.terminated() {
			lw.emit(ir.Instr{Op: ir.OpBranch, Target: lw.cont[n-1], Pos: s.P})
			lw.cur = lw.newBlock()
		}
	case *ast.AssertStmt:
		c := lw.condValue(s.X)
		lw.emit(ir.Instr{Op: ir.OpAssume, Cond: c, Pos: s.P})
	case *ast.AsmStmt:
		// Opaque; no effect in the abstraction.
	default:
		// Unknown statement kinds are abstracted away.
	}
}

func (lw *funcLowerer) ifStmt(s *ast.IfStmt) {
	thenB := lw.newBlock()
	exitB := lw.newBlock()
	elseB := exitB
	if s.Else != nil {
		elseB = lw.newBlock()
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
	condB := lw.newBlock()
	bodyB := lw.newBlock()
	exitB := lw.newBlock()
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
	bodyB := lw.newBlock()
	condB := lw.newBlock()
	exitB := lw.newBlock()
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
	condB := lw.newBlock()
	bodyB := lw.newBlock()
	postB := lw.newBlock()
	exitB := lw.newBlock()
	lw.jumpTo(condB)
	if s.Cond != nil {
		lw.cond(s.Cond, bodyB, exitB)
	} else {
		lw.emit(ir.Instr{Op: ir.OpBranch, Target: bodyB})
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
	exitB := lw.newBlock()
	lw.brk = append(lw.brk, exitB)

	// The case bodies are the n blocks from body0 on.
	n := len(s.Cases)
	body0 := len(lw.blocks)
	for range s.Cases {
		lw.newBlock()
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
		fallback = body0 + defaultIdx
	}
	for i, c := range s.Cases {
		if c.IsDefault {
			continue
		}
		v := lw.expr(c.Value)
		t := lw.temp()
		lw.emit(ir.Instr{Op: ir.OpCompare, Dst: t, Pred: ir.EQ, A: tag, B: v, Pos: c.P})
		next := lw.newBlock()
		lw.emit(ir.Instr{Op: ir.OpBranchCond, Cond: ir.Var(t), True: body0 + i, False: next, Pos: c.P})
		lw.cur = next
	}
	lw.jumpTo(fallback)
	// Case bodies with C fallthrough.
	for i, c := range s.Cases {
		lw.cur = body0 + i
		for _, st := range c.Body {
			lw.stmt(st)
		}
		if i+1 < n {
			lw.jumpTo(body0 + i + 1)
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
func (lw *funcLowerer) cond(e ast.Expr, trueB, falseB int) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			mid := lw.newBlock()
			lw.cond(e.X, mid, falseB)
			lw.cur = mid
			lw.cond(e.Y, trueB, falseB)
			return
		case token.LOR:
			mid := lw.newBlock()
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
	lw.emit(ir.Instr{Op: ir.OpBranchCond, Cond: v, True: trueB, False: falseB, Pos: e.Pos()})
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
			lw.emit(ir.Instr{Op: ir.OpCompare, Dst: t, Pred: pred, A: a, B: b, Pos: be.P})
			return ir.Var(t)
		}
	}
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.NOT {
		// !x as a value: x == 0.
		a := lw.expr(ue.X)
		t := lw.temp()
		lw.emit(ir.Instr{Op: ir.OpCompare, Dst: t, Pred: ir.EQ, A: a, B: ir.Int(0), Pos: ue.P})
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
		mark := lw.pushArgs(e.Args)
		lw.emitCall(ir.Instr{Op: ir.OpCall, Fn: e.Fun, Pos: e.P}, mark)
	case *ast.AssignExpr:
		lw.assign(e)
	case *ast.IncDecExpr:
		lw.incDec(e)
	default:
		_ = lw.expr(e) // evaluate for side effects (nested calls)
	}
}

func (lw *funcLowerer) assign(e *ast.AssignExpr) {
	switch lhs := e.LHS.(type) {
	case *ast.Ident:
		if e.Op != token.ASSIGN {
			// x += e is arithmetic: abstracted to random (§4.1 — refcounts
			// are only changed via APIs, plain arithmetic is ignored).
			_ = lw.expr(e.RHS)
			lw.emit(ir.Instr{Op: ir.OpRandom, Dst: lhs.Name, Pos: e.P})
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
		lw.emit(ir.Instr{Op: ir.OpRandom, Dst: id.Name, Pos: e.P})
	}
}

// exprInto lowers e and binds the result to the named destination,
// emitting the defining instruction directly into dst when possible.
func (lw *funcLowerer) exprInto(dst string, e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		mark := lw.pushArgs(e.Args)
		lw.emitCall(ir.Instr{Op: ir.OpCall, Dst: dst, Fn: e.Fun, Pos: e.P}, mark)
	case *ast.FieldExpr:
		obj := lw.expr(e.X)
		lw.emit(ir.Instr{Op: ir.OpLoadField, Dst: dst, Obj: obj, Field: e.Name, Pos: e.P})
	case *ast.RandomExpr:
		lw.emit(ir.Instr{Op: ir.OpRandom, Dst: dst, Pos: e.P})
	case *ast.BinaryExpr:
		if pred, isCmp := ir.PredFromToken(e.Op); isCmp {
			a := lw.expr(e.X)
			b := lw.expr(e.Y)
			lw.emit(ir.Instr{Op: ir.OpCompare, Dst: dst, Pred: pred, A: a, B: b, Pos: e.P})
			return
		}
		v := lw.expr(e)
		lw.emit(ir.Instr{Op: ir.OpAssign, Dst: dst, Val: v, Pos: e.P})
	default:
		v := lw.expr(e)
		lw.emit(ir.Instr{Op: ir.OpAssign, Dst: dst, Val: v, Pos: e.Pos()})
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
		lw.emit(ir.Instr{Op: ir.OpRandom, Dst: t, Pos: e.P})
		return ir.Var(t)
	case *ast.FieldExpr:
		obj := lw.expr(e.X)
		t := lw.temp()
		lw.emit(ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: obj, Field: e.Name, Pos: e.P})
		return ir.Var(t)
	case *ast.CallExpr:
		mark := lw.pushArgs(e.Args)
		t := lw.temp()
		lw.emitCall(ir.Instr{Op: ir.OpCall, Dst: t, Fn: e.Fun, Pos: e.P}, mark)
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
	}
	return lw.havoc(e.Pos())
}

// havoc materializes an unknown value (the random generator of Figure 3).
func (lw *funcLowerer) havoc(pos token.Pos) ir.Value {
	t := lw.temp()
	lw.emit(ir.Instr{Op: ir.OpRandom, Dst: t, Pos: pos})
	return ir.Var(t)
}

func (lw *funcLowerer) unary(e *ast.UnaryExpr) ir.Value {
	switch e.Op {
	case token.NOT:
		a := lw.expr(e.X)
		t := lw.temp()
		lw.emit(ir.Instr{Op: ir.OpCompare, Dst: t, Pred: ir.EQ, A: a, B: ir.Int(0), Pos: e.P})
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
			lw.emit(ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: obj, Field: fe.Name, Pos: e.P})
			return ir.Var(t)
		}
		_ = lw.expr(e.X)
		return lw.havoc(e.P)
	case token.STAR:
		// Pointer dereference: model as loading the distinguished "deref"
		// field so *p keeps a stable symbolic identity.
		obj := lw.expr(e.X)
		t := lw.temp()
		lw.emit(ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: obj, Field: "*", Pos: e.P})
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
		lw.emit(ir.Instr{Op: ir.OpCompare, Dst: t, Pred: pred, A: a, B: b, Pos: e.P})
		return ir.Var(t)
	}
	switch e.Op {
	case token.LAND, token.LOR:
		// Value position: lower via control flow into a temp.
		t := lw.temp()
		trueB := lw.newBlock()
		falseB := lw.newBlock()
		exitB := lw.newBlock()
		lw.cond(e, trueB, falseB)
		lw.cur = trueB
		lw.emit(ir.Instr{Op: ir.OpAssign, Dst: t, Val: ir.Bool(true), Pos: e.P})
		lw.jumpTo(exitB)
		lw.cur = falseB
		lw.emit(ir.Instr{Op: ir.OpAssign, Dst: t, Val: ir.Bool(false), Pos: e.P})
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
			lw.emit(ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: base, Field: "&" + strconv.FormatInt(lit.Value, 10), Pos: e.P})
			return ir.Var(t)
		}
		if lit, ok := e.X.(*ast.IntLit); ok {
			base := lw.expr(e.Y)
			t := lw.temp()
			lw.emit(ir.Instr{Op: ir.OpLoadField, Dst: t, Obj: base, Field: "&" + strconv.FormatInt(lit.Value, 10), Pos: e.P})
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
