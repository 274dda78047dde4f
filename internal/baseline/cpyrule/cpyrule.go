// Package cpyrule implements the Cpychecker/Pungi-style escape-rule
// checker the paper compares against (§2.1, §6.6): in any function, the net
// change to an object's refcount must equal the number of references that
// escape the function through the return value or through reference-
// stealing APIs.
//
// The checker deliberately mirrors the documented weaknesses of Cpychecker
// rather than fixing them:
//
//   - It is not SSA-based: a variable reassigned to a different tracked
//     object confuses the tracker, which then excludes both objects from
//     checking (the reason RID finds more bugs in Table 2).
//   - Wrapper functions around the basic refcount APIs violate the rule by
//     construction and are flagged (the false-positive class that needs
//     manual GCC attributes in Cpychecker).
//
// It runs on the same abstract IR as RID and uses the same predefined API
// specifications, consuming their steal/newref attributes.
package cpyrule

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/frontend/token"
	"repro/internal/ir"
	"repro/internal/spec"
)

// Kind classifies a finding.
type Kind int

// Finding kinds.
const (
	Leak      Kind = iota // net change exceeds escaping references
	OverDecre             // net change below escaping references
)

func (k Kind) String() string {
	if k == Leak {
		return "leak"
	}
	return "over-decrement"
}

// Report is one escape-rule violation.
type Report struct {
	Fn     string
	Object string // human-readable object identity ("arg a", "PyList_New@3")
	Kind   Kind
	Net    int // observed net refcount change
	Want   int // escaping references
	Pos    token.Pos
}

// Key deduplicates findings per function and object.
func (r *Report) Key() string { return r.Fn + "\x00" + r.Object }

func (r *Report) String() string {
	return fmt.Sprintf("%s: function %s: %s of %s (net %+d, escapes %d)",
		r.Pos, r.Fn, r.Kind, r.Object, r.Net, r.Want)
}

// Config bounds the per-function exploration.
type Config struct {
	MaxPaths int // default 100
}

// Checker runs the escape rule over a program.
type Checker struct {
	specs *spec.Specs
	cfg   Config
}

// New returns a checker using the given API specifications (their steal
// and newref attributes drive escape accounting).
func New(specs *spec.Specs, cfg Config) *Checker {
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 100
	}
	return &Checker{specs: specs, cfg: cfg}
}

// object is an abstract tracked object.
type object struct {
	id     int
	desc   string
	isArg  bool
	netRC  int
	steals int  // references escaped into stealing APIs
	isNull bool // allocation observed to have failed on this path
}

// value is the abstract value of a variable.
type value struct {
	obj  *object // nil when not an object
	null bool
}

// env is the per-path abstract state. Non-SSA quirk: a variable already
// bound to an object that is re-bound to a *different* object marks both
// objects confused.
type env struct {
	vars      map[string]value
	objs      []*object
	confused  map[int]bool
	nextID    int
	nullTests map[string]nullTest
}

func (e *env) newObject(desc string, isArg bool) *object {
	o := &object{id: e.nextID, desc: desc, isArg: isArg}
	e.nextID++
	e.objs = append(e.objs, o)
	return o
}

// bind implements the non-SSA assignment semantics.
func (e *env) bind(name string, v value) {
	if old, ok := e.vars[name]; ok && old.obj != nil && v.obj != nil && old.obj.id != v.obj.id {
		e.confused[old.obj.id] = true
		e.confused[v.obj.id] = true
	}
	e.vars[name] = v
}

// Check analyzes every defined function and returns the deduplicated
// findings sorted by function and object.
func (c *Checker) Check(prog *ir.Program) []*Report {
	var out []*Report
	seen := make(map[string]bool)
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		for _, r := range c.checkFunc(fn) {
			if !seen[r.Key()] {
				seen[r.Key()] = true
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Object < out[j].Object
	})
	return out
}

func (c *Checker) checkFunc(fn *ir.Func) []*Report {
	g := cfg.New(fn)
	enum := g.Enumerate(c.cfg.MaxPaths)
	var reports []*Report
	for _, p := range enum.Paths {
		reports = append(reports, c.checkPath(fn, p)...)
	}
	return reports
}

func (c *Checker) checkPath(fn *ir.Func, p cfg.Path) []*Report {
	e := &env{vars: make(map[string]value), confused: make(map[int]bool)}
	for _, prm := range fn.Params {
		o := e.newObject("arg "+prm, true)
		e.vars[prm] = value{obj: o}
	}
	var returned *object
	hasReturn := false

	blocks := p.Blocks
	body := fn.Body().Blocks
	for bi, b := range blocks {
		blk := body[b]
		next := -1
		if bi+1 < len(blocks) {
			next = blocks[bi+1]
		}
		for _, in := range blk.Instrs {
			switch in.Op {
			case ir.OpAssign:
				e.bind(in.Dst, c.evalVal(e, in.Val))
			case ir.OpLoadField, ir.OpRandom, ir.OpCompare:
				// Not object-producing; clear any stale binding.
				if in.Dst != "" {
					e.vars[in.Dst] = value{}
				}
				if in.Op == ir.OpCompare {
					// Remember null comparisons so branches can refine.
					e.recordNullTest(in)
				}
			case ir.OpCall:
				c.applyCall(e, in)
			case ir.OpBranchCond:
				e.refineOnBranch(in, next)
			case ir.OpReturn:
				hasReturn = true
				if in.HasVal {
					v := c.evalVal(e, in.Val)
					returned = v.obj
				}
			}
		}
	}
	if !hasReturn {
		return nil
	}

	var reports []*Report
	for _, o := range e.objs {
		if e.confused[o.id] || o.isNull {
			continue
		}
		want := o.steals
		if returned != nil && returned.id == o.id {
			want++ // one reference escapes through the return value
		}
		if o.isArg {
			// Borrowed references: the rule requires the net change to
			// cover exactly the escapes (returning a borrowed reference
			// without incrementing is the classic Cpychecker FP).
			if o.netRC == want {
				continue
			}
		} else {
			if o.netRC == want {
				continue
			}
		}
		kind := Leak
		if o.netRC < want {
			kind = OverDecre
		}
		reports = append(reports, &Report{
			Fn: fn.Name, Object: o.desc, Kind: kind,
			Net: o.netRC, Want: want, Pos: fn.Pos,
		})
	}
	return reports
}

// evalVal maps an IR operand to its abstract value.
func (c *Checker) evalVal(e *env, v ir.Value) value {
	switch v.Kind {
	case ir.ValVar:
		return e.vars[v.Var]
	case ir.ValNull:
		return value{null: true}
	}
	return value{}
}

// nullTests remembers "t = x == null"-style comparisons per destination so
// a branch on t can refine x.
type nullTest struct {
	varName string
	eqNull  bool
}

func (e *env) recordNullTest(in *ir.Instr) {
	if e.nullTests == nil {
		e.nullTests = make(map[string]nullTest)
	}
	var varSide ir.Value
	var other ir.Value
	if in.A.Kind == ir.ValVar {
		varSide, other = in.A, in.B
	} else if in.B.Kind == ir.ValVar {
		varSide, other = in.B, in.A
	} else {
		return
	}
	isNull := other.Kind == ir.ValNull || (other.Kind == ir.ValInt && other.Int == 0)
	if !isNull {
		return
	}
	switch in.Pred {
	case ir.EQ:
		e.nullTests[in.Dst] = nullTest{varName: varSide.Var, eqNull: true}
	case ir.NE:
		e.nullTests[in.Dst] = nullTest{varName: varSide.Var, eqNull: false}
	}
}

// refineOnBranch marks an allocation as failed when the path takes the
// "pointer is null" side of a null test: its optimistic +1 is undone.
func (e *env) refineOnBranch(in *ir.Instr, next int) {
	if in.Cond.Kind != ir.ValVar || next < 0 || in.True == in.False {
		return
	}
	nt, ok := e.nullTests[in.Cond.Var]
	if !ok {
		return
	}
	takenTrue := next == in.True
	isNull := nt.eqNull == takenTrue
	v, bound := e.vars[nt.varName]
	if !bound || v.obj == nil {
		return
	}
	if isNull {
		v.obj.isNull = true
	}
}

// applyCall updates the environment for one call using the API specs.
func (c *Checker) applyCall(e *env, in *ir.Instr) {
	api := c.specs.APIs[in.Fn]
	if api == nil {
		// Unknown callee: results are not objects; arguments unaffected.
		if in.Dst != "" {
			e.vars[in.Dst] = value{}
		}
		return
	}
	// Steal attributes: the reference escapes into the callee.
	for _, idx := range api.Steals {
		if idx < len(in.Args) && in.Args[idx].Kind == ir.ValVar {
			if v, ok := e.vars[in.Args[idx].Var]; ok && v.obj != nil {
				v.obj.steals++
			}
		}
	}
	// Refcount changes from the success entry (optimistic; null-branch
	// refinement undoes failed allocations).
	entry := api.Summary.Entries[0]
	for _, ch := range entry.Changes {
		rc := ch.RC
		// Only [param].rc and [0].rc shapes occur in the predefined specs.
		base := rc
		for base.Base != nil {
			base = base.Base
		}
		switch {
		case base.Key() == "[0]":
			if api.NewRef && in.Dst != "" {
				o := e.newObject(fmt.Sprintf("%s result", in.Fn), false)
				o.netRC += ch.Delta
				e.bind(in.Dst, value{obj: o})
			}
		default:
			// An argument's refcount.
			for i, prm := range api.Params {
				if "["+prm+"]" == base.Key() && i < len(in.Args) && in.Args[i].Kind == ir.ValVar {
					if v, ok := e.vars[in.Args[i].Var]; ok && v.obj != nil {
						v.obj.netRC += ch.Delta
					}
				}
			}
		}
	}
	if in.Dst != "" && !api.NewRef {
		// Borrowed-reference getters yield untracked values.
		e.vars[in.Dst] = value{}
	}
}
