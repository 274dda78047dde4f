// Package slice computes the static backward slices used by the second
// classification phase of §5.2: for a function, the slice criteria are its
// return value and every actual argument passed to refcount-changing
// callees; a callee whose result lies in the slice "may affect the behavior
// of functions with refcount changes" and is classified into category 2.
//
// The slicer is intra-procedural and conservative: data dependencies are a
// fixpoint over variable definitions, and control dependencies include
// every conditional branch from which a slice-relevant instruction is
// reachable (an over-approximation of standard control dependence that
// errs toward classifying more functions as category 2 — the safe
// direction, since category 2 only widens what gets analyzed).
package slice

import (
	"repro/internal/ir"
)

// Criteria selects the slice seeds for one function.
type Criteria struct {
	// ReturnValue seeds the slice with the returned values.
	ReturnValue bool
	// ArgsOfCallsTo reports whether arguments passed to the named callee
	// are slice seeds (the refcount-changing callees).
	ArgsOfCallsTo func(callee string) bool
}

// Result is the computed slice.
type Result struct {
	// Relevant is the set of variable names in the slice.
	Relevant map[string]bool
	// CalleesInSlice is the set of called functions whose return value is
	// used by the slice.
	CalleesInSlice map[string]bool
}

// Compute returns the backward slice of fn for the given criteria.
func Compute(fn *ir.Func, crit Criteria) Result {
	var s Slicer
	return s.Compute(fn, crit)
}

// Slicer computes slices in storage it reuses from one function to the
// next: the result maps are cleared rather than reallocated, and the
// reachability pass runs in recycled arrays. The zero value is ready to
// use; a Slicer is not safe for concurrent use.
type Slicer struct {
	res     Result
	seeds   []bool // blocks holding a slice criterion
	reach   []bool // blocks from which a seed block is reachable
	preds   [][]int
	predBuf []int
	work    []int
}

// Compute returns the backward slice of fn for the given criteria. The
// result's maps belong to s: they are valid until the next Compute call.
func (s *Slicer) Compute(fn *ir.Func, crit Criteria) Result {
	if s.res.Relevant == nil {
		s.res = Result{Relevant: make(map[string]bool), CalleesInSlice: make(map[string]bool)}
	}
	res := s.res
	clear(res.Relevant)
	clear(res.CalleesInSlice)
	blocks := fn.Body().Blocks
	s.seeds = grow(s.seeds, len(blocks))
	clear(s.seeds)

	// Seeds.
	for _, b := range blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpReturn:
				if crit.ReturnValue && in.HasVal {
					addVar(res.Relevant, in.Val)
					s.seeds[b.Index] = true
				}
			case ir.OpCall:
				if crit.ArgsOfCallsTo != nil && crit.ArgsOfCallsTo(in.Fn) {
					for _, a := range in.Args {
						addVar(res.Relevant, a)
					}
					s.seeds[b.Index] = true
				}
			}
		}
	}

	reach := s.reachesAny(blocks)

	// Fixpoint over data and control dependencies.
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpAssign:
					if res.Relevant[in.Dst] {
						changed = addVar(res.Relevant, in.Val) || changed
					}
				case ir.OpLoadField:
					if res.Relevant[in.Dst] {
						changed = addVar(res.Relevant, in.Obj) || changed
					}
				case ir.OpCompare:
					if res.Relevant[in.Dst] {
						changed = addVar(res.Relevant, in.A) || changed
						changed = addVar(res.Relevant, in.B) || changed
					}
				case ir.OpCall:
					if in.Dst != "" && res.Relevant[in.Dst] {
						if !res.CalleesInSlice[in.Fn] {
							res.CalleesInSlice[in.Fn] = true
							changed = true
						}
						for _, a := range in.Args {
							changed = addVar(res.Relevant, a) || changed
						}
					}
				case ir.OpBranchCond:
					// Control dependence: a branch that can lead to a
					// criterion-bearing block pulls its condition in.
					if in.True != in.False && (reach[in.True] || reach[in.False]) {
						changed = addVar(res.Relevant, in.Cond) || changed
					}
				}
			}
		}
	}
	return res
}

// addVar adds v to the relevant set when it is a variable, and reports
// whether the set grew.
func addVar(relevant map[string]bool, v ir.Value) bool {
	if v.Kind != ir.ValVar || relevant[v.Var] {
		return false
	}
	relevant[v.Var] = true
	return true
}

// grow returns s resized to n, reusing its storage when it is big enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reachesAny computes, per block, whether any seed block is reachable
// from it (including itself). Predecessor lists are carved from one
// backing array sized by a counting pass.
func (s *Slicer) reachesAny(blocks []*ir.Block) []bool {
	n := len(blocks)
	s.reach = grow(s.reach, n)
	reach := s.reach
	clear(reach)
	s.preds = grow(s.preds, n)
	indeg := s.work[:0]
	for range n {
		indeg = append(indeg, 0)
	}
	total := 0
	var two [2]int
	for _, b := range blocks {
		for _, succ := range b.AppendSuccs(two[:0]) {
			indeg[succ]++
			total++
		}
	}
	s.predBuf = grow(s.predBuf, total)
	off := 0
	for i := range n {
		s.preds[i] = s.predBuf[off : off : off+indeg[i]]
		off += indeg[i]
	}
	for _, b := range blocks {
		for _, succ := range b.AppendSuccs(two[:0]) {
			s.preds[succ] = append(s.preds[succ], b.Index)
		}
	}
	work := indeg[:0]
	for t, seed := range s.seeds {
		if seed {
			reach[t] = true
			work = append(work, t)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range s.preds[v] {
			if !reach[p] {
				reach[p] = true
				work = append(work, p)
			}
		}
	}
	s.work = work
	return reach
}
