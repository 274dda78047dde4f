// Package ir defines the abstract program representation of the RID paper
// (Figure 3). Programs are lowered from the mini-C AST into this form and
// all analysis operates on it.
//
// The instruction set is deliberately small:
//
//	x = v
//	x = y.field
//	x = random
//	fn(v1, ..., vn)
//	x = fn(v1, ..., vn)
//	return v
//	x = v1 p v2
//	branch x, l1, l2
//	branch l
//
// plus one extension, "assume x", used to model assert() by constraining
// the analyzed path (the paper ignores the assertion-failure path the same
// way). Values are variables, numeral constants, booleans, or null.
package ir

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/frontend/token"
)

// Pred is one of the six relational predicates preserved by the
// abstraction.
type Pred int

// Predicates.
const (
	EQ Pred = iota
	NE
	LT
	LE
	GT
	GE
)

var predNames = [...]string{"==", "!=", "<", "<=", ">", ">="}

// String renders the predicate in C syntax.
func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("Pred(%d)", int(p))
}

// Negate returns the complementary predicate (¬(a<b) is a>=b, etc.).
func (p Pred) Negate() Pred {
	switch p {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return p
}

// Flip returns the predicate with operands swapped (a<b iff b>a).
func (p Pred) Flip() Pred {
	switch p {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return p // EQ, NE are symmetric
}

// Eval applies the predicate to concrete integers.
func (p Pred) Eval(a, b int64) bool {
	switch p {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// PredFromToken converts a comparison token kind to a Pred.
func PredFromToken(k token.Kind) (Pred, bool) {
	switch k {
	case token.EQ:
		return EQ, true
	case token.NE:
		return NE, true
	case token.LT:
		return LT, true
	case token.LE:
		return LE, true
	case token.GT:
		return GT, true
	case token.GE:
		return GE, true
	}
	return EQ, false
}

// ---------------------------------------------------------------------------
// Values

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	ValVar ValueKind = iota
	ValInt
	ValBool
	ValNull
)

// Value is an operand of an instruction: a variable name, a numeral, a
// boolean, or null.
type Value struct {
	Kind ValueKind
	Var  string // ValVar
	Int  int64  // ValInt
	Bool bool   // ValBool
}

// Var returns a variable value.
func Var(name string) Value { return Value{Kind: ValVar, Var: name} }

// Int returns a numeral value.
func Int(v int64) Value { return Value{Kind: ValInt, Int: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{Kind: ValBool, Bool: v} }

// Null returns the null value.
func Null() Value { return Value{Kind: ValNull} }

// String renders the value.
func (v Value) String() string {
	if v.Kind == ValVar {
		return v.Var
	}
	return string(v.appendText(nil))
}

func (v Value) appendText(dst []byte) []byte {
	switch v.Kind {
	case ValVar:
		return append(dst, v.Var...)
	case ValInt:
		return strconv.AppendInt(dst, v.Int, 10)
	case ValBool:
		return strconv.AppendBool(dst, v.Bool)
	case ValNull:
		return append(dst, "null"...)
	}
	return append(dst, '?')
}

// ---------------------------------------------------------------------------
// Instructions

// Op is the opcode of an instruction.
type Op int

// Opcodes, mirroring Figure 3 of the paper plus Assume.
const (
	OpAssign     Op = iota // Dst = Val
	OpLoadField            // Dst = Obj.Field
	OpRandom               // Dst = random
	OpCall                 // [Dst =] Fn(Args...)
	OpReturn               // return Val (Val may be absent: HasVal=false)
	OpCompare              // Dst = A Pred B
	OpBranchCond           // branch Cond, True, False
	OpBranch               // branch Target
	OpAssume               // assume Cond (assert lowering)
)

// Instr is a single abstract instruction. Fields are used according to Op;
// unused fields are zero.
type Instr struct {
	Op     Op
	Dst    string  // OpAssign, OpLoadField, OpRandom, OpCompare, OpCall ("" if call result unused)
	Val    Value   // OpAssign, OpReturn
	HasVal bool    // OpReturn: whether a value is returned
	Obj    Value   // OpLoadField: base object
	Field  string  // OpLoadField
	Fn     string  // OpCall
	Args   []Value // OpCall
	Pred   Pred    // OpCompare
	A, B   Value   // OpCompare
	Cond   Value   // OpBranchCond, OpAssume
	True   int     // OpBranchCond: target block index
	False  int     // OpBranchCond
	Target int     // OpBranch
	Pos    token.Pos
}

// String renders the instruction in the paper's syntax.
func (in *Instr) String() string { return string(in.AppendText(nil)) }

// AppendText appends the instruction's String form to dst and returns the
// extended slice. Func.Digest uses it to render a whole function
// into one reused buffer.
func (in *Instr) AppendText(dst []byte) []byte {
	switch in.Op {
	case OpAssign:
		dst = append(dst, in.Dst...)
		dst = append(dst, " = "...)
		return in.Val.appendText(dst)
	case OpLoadField:
		dst = append(dst, in.Dst...)
		dst = append(dst, " = "...)
		dst = in.Obj.appendText(dst)
		dst = append(dst, '.')
		return append(dst, in.Field...)
	case OpRandom:
		dst = append(dst, in.Dst...)
		return append(dst, " = random"...)
	case OpCall:
		if in.Dst != "" {
			dst = append(dst, in.Dst...)
			dst = append(dst, " = "...)
		}
		dst = append(dst, in.Fn...)
		dst = append(dst, '(')
		for i, a := range in.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = a.appendText(dst)
		}
		return append(dst, ')')
	case OpReturn:
		if in.HasVal {
			dst = append(dst, "return "...)
			return in.Val.appendText(dst)
		}
		return append(dst, "return"...)
	case OpCompare:
		dst = append(dst, in.Dst...)
		dst = append(dst, " = "...)
		dst = in.A.appendText(dst)
		dst = append(dst, ' ')
		dst = append(dst, in.Pred.String()...)
		dst = append(dst, ' ')
		return in.B.appendText(dst)
	case OpBranchCond:
		dst = append(dst, "branch "...)
		dst = in.Cond.appendText(dst)
		dst = append(dst, ", b"...)
		dst = strconv.AppendInt(dst, int64(in.True), 10)
		dst = append(dst, ", b"...)
		return strconv.AppendInt(dst, int64(in.False), 10)
	case OpBranch:
		dst = append(dst, "branch b"...)
		return strconv.AppendInt(dst, int64(in.Target), 10)
	case OpAssume:
		dst = append(dst, "assume "...)
		return in.Cond.appendText(dst)
	}
	dst = append(dst, "op("...)
	dst = strconv.AppendInt(dst, int64(in.Op), 10)
	return append(dst, ')')
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpReturn, OpBranch, OpBranchCond:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Functions and programs

// Block is a basic block: straight-line instructions ending in a
// terminator. Branch targets are block indices within the function.
type Block struct {
	Index  int
	Instrs []*Instr
}

// Terminator returns the block's final instruction, or nil if the block is
// not yet terminated (only legal during construction).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.IsTerminator() {
		return last
	}
	return nil
}

// Succs returns the indices of the successor blocks.
func (b *Block) Succs() []int {
	return b.AppendSuccs(nil)
}

// AppendSuccs appends the successor block indices to dst and returns the
// extended slice. Callers building whole-function CFGs use this with a
// shared backing array so successor lists cost one allocation per
// function instead of one per block.
func (b *Block) AppendSuccs(dst []int) []int {
	t := b.Terminator()
	if t == nil {
		return dst
	}
	switch t.Op {
	case OpBranch:
		return append(dst, t.Target)
	case OpBranchCond:
		if t.True == t.False {
			return append(dst, t.True)
		}
		return append(dst, t.True, t.False)
	}
	return dst
}

// NumSuccs returns the number of successor blocks without allocating.
func (b *Block) NumSuccs() int {
	t := b.Terminator()
	if t == nil {
		return 0
	}
	switch t.Op {
	case OpBranch:
		return 1
	case OpBranchCond:
		if t.True == t.False {
			return 1
		}
		return 2
	}
	return 0
}

// Body is a function's lowered code. Block 0 is the entry.
type Body struct {
	Blocks   []*Block
	NumConds int // number of conditional branches (category-2 gating, §5.2)

	// digest memoizes Func.Digest. It lives here rather than in Func so
	// that only lowered functions pay for it.
	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// body names Body for embedding in Func under an unexported field name.
type body = Body

// Func is a function in the abstract program. Its signature and Calls are
// known once the source is parsed; its Body is built on first use.
type Func struct {
	Name    string
	Params  []string
	HasRet  bool // declared with a non-void result
	Pos     token.Pos
	SrcFile string
	// Calls is the set of function names f calls, sorted. The frontend
	// records it while checking the source, so the call graph needs no
	// body.
	Calls []string

	// *body is nil until Body runs. It is embedded only so that code
	// reading f.Blocks directly, like bench/ridperf, still compiles; such
	// a read of a function nobody has lowered panics instead of seeing no
	// code. Everything else reads the body through Body.
	*body
	once    sync.Once
	build   func() *Body
	lowered atomic.Bool // build has run
}

// Defer makes build produce f's body the first time Body is called.
func (f *Func) Defer(build func() *Body) { f.build = build }

// Body returns f's lowered code, building and validating it on the first
// call; concurrent first calls build it once. The builder is dropped
// afterwards, together with anything it holds.
func (f *Func) Body() *Body {
	f.once.Do(f.force)
	return f.body
}

// force builds f's body; a function built by hand without Defer gets an
// empty one to add blocks to.
func (f *Func) force() {
	if f.build != nil {
		f.body, f.build = f.build(), nil
		f.lowered.Store(true)
		if err := f.body.validate(f.Name); err != nil {
			panic(err)
		}
	} else if f.body == nil {
		f.body = &Body{}
	}
}

// Lowered reports whether a deferred builder has produced f's body.
func (f *Func) Lowered() bool { return f.lowered.Load() }

// Digest returns the SHA-256 of f's canonical text (appendCanon). It is
// computed on the first call and memoized with the body, so a function
// shared across runs (lower.Memo) is rendered and hashed once. A body
// must not change after its digest is taken.
func (f *Func) Digest() [sha256.Size]byte {
	b := f.Body()
	b.digestOnce.Do(func() {
		buf := canonBufs.Get().(*[]byte)
		*buf = f.appendCanon((*buf)[:0])
		b.digest = sha256.Sum256(*buf)
		canonBufs.Put(buf)
	})
	return b.digest
}

// canonBufs recycles the canonical text Digest hashes.
var canonBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendCanon appends everything about f that the analysis can observe to
// dst: its signature and every instruction, without positions or file
// name. Changing this text changes every summary-store digest, so it
// needs a new store.FormatVersion.
func (f *Func) appendCanon(dst []byte) []byte {
	dst = append(dst, "func "...)
	dst = append(dst, f.Name...)
	dst = append(dst, '(')
	for i, p := range f.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p...)
	}
	body := f.Body()
	dst = append(dst, ") ret="...)
	dst = strconv.AppendBool(dst, f.HasRet)
	dst = append(dst, " conds="...)
	dst = strconv.AppendInt(dst, int64(body.NumConds), 10)
	dst = append(dst, '\n')
	for _, b := range body.Blocks {
		dst = append(dst, 'b')
		dst = strconv.AppendInt(dst, int64(b.Index), 10)
		dst = append(dst, ":\n"...)
		for _, in := range b.Instrs {
			dst = in.AppendText(dst)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// NewBlock appends an empty block and returns it.
func (b *Body) NewBlock() *Block {
	blk := &Block{Index: len(b.Blocks)}
	b.Blocks = append(b.Blocks, blk)
	return blk
}

// String renders the function as readable IR text.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%s):\n", f.Name, strings.Join(f.Params, ", "))
	for _, b := range f.Body().Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.Index)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
	}
	return sb.String()
}

// Program is a set of functions indexed by name, plus the list of extern
// declarations for which no body exists.
type Program struct {
	Funcs   map[string]*Func
	Order   []string // deterministic iteration order (definition order)
	Externs map[string]bool
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Funcs: make(map[string]*Func), Externs: make(map[string]bool)}
}

// Add inserts a function definition. A redefinition replaces the previous
// body (last definition wins, matching the linker's weak-symbol handling
// described in §5.3 of the paper).
func (p *Program) Add(f *Func) {
	if _, exists := p.Funcs[f.Name]; !exists {
		p.Order = append(p.Order, f.Name)
	}
	p.Funcs[f.Name] = f
	delete(p.Externs, f.Name)
}

// AddExtern records a function declared but not defined.
func (p *Program) AddExtern(name string) {
	if _, exists := p.Funcs[name]; !exists {
		p.Externs[name] = true
	}
}

// Merge folds other into p (multi-file analysis). Definitions win over
// externs; duplicate definitions follow last-wins.
func (p *Program) Merge(other *Program) {
	for _, name := range other.Order {
		p.Add(other.Funcs[name])
	}
	for name := range other.Externs {
		p.AddExtern(name)
	}
}

// Validate builds every function's body and checks its structural
// invariants: entry block exists, every block is terminated, and branch
// targets are in range. It returns the first violation found.
func (p *Program) Validate() error {
	for _, name := range p.Order {
		if err := p.Funcs[name].Body().validate(name); err != nil {
			return err
		}
	}
	return nil
}

func (b *Body) validate(name string) error {
	if len(b.Blocks) == 0 {
		return fmt.Errorf("function %s has no blocks", name)
	}
	var buf [2]int // a block has at most two successors
	for _, blk := range b.Blocks {
		if blk.Terminator() == nil {
			return fmt.Errorf("function %s: block b%d not terminated", name, blk.Index)
		}
		for i, in := range blk.Instrs {
			if in.IsTerminator() && i != len(blk.Instrs)-1 {
				return fmt.Errorf("function %s: block b%d has terminator mid-block", name, blk.Index)
			}
		}
		for _, s := range blk.AppendSuccs(buf[:0]) {
			if s < 0 || s >= len(b.Blocks) {
				return fmt.Errorf("function %s: block b%d branches to out-of-range b%d", name, blk.Index, s)
			}
		}
	}
	return nil
}
