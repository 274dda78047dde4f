// Package pungi implements a Pungi-style checker (S. Li & G. Tan, ECOOP
// 2014), the second comparison point of the paper's §2.1: the same escape
// rule as Cpychecker — an object's net refcount change must equal the
// references escaping the function — but evaluated per path on an
// SSA-style value tracking, so variable reassignment does not confuse it.
//
// The paper's §2.1 makes two claims this package makes testable:
//
//  1. "Theoretically any bug found by RID (using a weaker property) should
//     be detectable by the methods of Pungi ... if the same analysis
//     techniques (e.g. SSA form) are adopted" — on the Python/C corpora,
//     pungi's findings are a superset of RID's per-object leak findings.
//  2. "wrappers to the basic refcount APIs ... are always considered an
//     error according to the rule above" — pungi (like Cpychecker) flags
//     every wrapper, the false-positive class that motivates RID's weaker
//     property.
package pungi

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/frontend/token"
	"repro/internal/ir"
	"repro/internal/spec"
)

// Report is one escape-rule violation found on some path.
type Report struct {
	Fn     string
	Object string
	Net    int
	Want   int
	Pos    token.Pos
}

// Key deduplicates per function and object.
func (r *Report) Key() string { return r.Fn + "\x00" + r.Object }

func (r *Report) String() string {
	kind := "leak"
	if r.Net < r.Want {
		kind = "over-decrement"
	}
	return fmt.Sprintf("%s: function %s: %s of %s (net %+d, escapes %d)",
		r.Pos, r.Fn, kind, r.Object, r.Net, r.Want)
}

// Config bounds per-function exploration.
type Config struct {
	MaxPaths int // default 100
}

// Checker runs the SSA-style escape rule.
type Checker struct {
	specs *spec.Specs
	cfg   Config
}

// New returns a checker over the given API specifications.
func New(specs *spec.Specs, cfg Config) *Checker {
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 100
	}
	return &Checker{specs: specs, cfg: cfg}
}

// Check analyzes every defined function.
func (c *Checker) Check(prog *ir.Program) []*Report {
	var out []*Report
	seen := make(map[string]bool)
	for _, name := range prog.Order {
		for _, r := range c.checkFunc(prog.Funcs[name]) {
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

// object tracks one reference-counted value along a path.
type object struct {
	id     int
	desc   string
	isArg  bool
	net    int
	steals int
	isNull bool
}

type env struct {
	vars      map[string]*object // SSA-style: rebinding replaces cleanly
	objs      []*object
	nullTests map[string]nullTest
}

type nullTest struct {
	varName string
	eqNull  bool
}

func (c *Checker) checkFunc(fn *ir.Func) []*Report {
	g := cfg.New(fn)
	enum := g.Enumerate(c.cfg.MaxPaths)
	var out []*Report
	for _, p := range enum.Paths {
		out = append(out, c.checkPath(fn, p)...)
	}
	return out
}

func (c *Checker) checkPath(fn *ir.Func, p cfg.Path) []*Report {
	e := &env{vars: make(map[string]*object), nullTests: make(map[string]nullTest)}
	newObj := func(desc string, isArg bool) *object {
		o := &object{id: len(e.objs), desc: desc, isArg: isArg}
		e.objs = append(e.objs, o)
		return o
	}
	for _, prm := range fn.Params {
		e.vars[prm] = newObj("arg "+prm, true)
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
				if in.Val.Kind == ir.ValVar {
					// SSA-style rebinding: the destination simply refers to
					// the source's object from here on.
					e.vars[in.Dst] = e.vars[in.Val.Var]
				} else {
					e.vars[in.Dst] = nil
				}
			case ir.OpLoadField, ir.OpRandom:
				e.vars[in.Dst] = nil
			case ir.OpCompare:
				e.vars[in.Dst] = nil
				c.recordNullTest(e, in)
			case ir.OpCall:
				c.applyCall(e, in, newObj)
			case ir.OpBranchCond:
				c.refine(e, in, next)
			case ir.OpReturn:
				hasReturn = true
				if in.HasVal && in.Val.Kind == ir.ValVar {
					returned = e.vars[in.Val.Var]
				}
			}
		}
	}
	if !hasReturn {
		return nil
	}

	var out []*Report
	for _, o := range e.objs {
		if o.isNull {
			continue
		}
		want := o.steals
		if returned != nil && returned.id == o.id {
			want++
		}
		if o.net != want {
			out = append(out, &Report{Fn: fn.Name, Object: o.desc, Net: o.net, Want: want, Pos: fn.Pos})
		}
	}
	return out
}

func (c *Checker) recordNullTest(e *env, in *ir.Instr) {
	var varSide, other ir.Value
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
		e.nullTests[in.Dst] = nullTest{varSide.Var, true}
	case ir.NE:
		e.nullTests[in.Dst] = nullTest{varSide.Var, false}
	}
}

func (c *Checker) refine(e *env, in *ir.Instr, next int) {
	if in.Cond.Kind != ir.ValVar || next < 0 || in.True == in.False {
		return
	}
	nt, ok := e.nullTests[in.Cond.Var]
	if !ok {
		return
	}
	if isNull := nt.eqNull == (next == in.True); isNull {
		if o := e.vars[nt.varName]; o != nil {
			o.isNull = true
		}
	}
}

func (c *Checker) applyCall(e *env, in *ir.Instr, newObj func(string, bool) *object) {
	api := c.specs.APIs[in.Fn]
	if api == nil {
		if in.Dst != "" {
			e.vars[in.Dst] = nil
		}
		return
	}
	for _, idx := range api.Steals {
		if idx < len(in.Args) && in.Args[idx].Kind == ir.ValVar {
			if o := e.vars[in.Args[idx].Var]; o != nil {
				o.steals++
			}
		}
	}
	entry := api.Summary.Entries[0] // optimistic; null refinement undoes
	for _, ch := range entry.Changes {
		base := ch.RC
		for base.Base != nil {
			base = base.Base
		}
		switch {
		case base.Key() == "[0]":
			if api.NewRef && in.Dst != "" {
				o := newObj(fmt.Sprintf("%s result", in.Fn), false)
				o.net += ch.Delta
				e.vars[in.Dst] = o
			}
		default:
			for i, prm := range api.Params {
				if "["+prm+"]" == base.Key() && i < len(in.Args) && in.Args[i].Kind == ir.ValVar {
					if o := e.vars[in.Args[i].Var]; o != nil {
						o.net += ch.Delta
					}
				}
			}
		}
	}
	if in.Dst != "" && !api.NewRef {
		e.vars[in.Dst] = nil
	}
}
