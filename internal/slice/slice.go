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
	res := Result{
		Relevant:       make(map[string]bool),
		CalleesInSlice: make(map[string]bool),
	}
	addVal := func(v ir.Value) {
		if v.Kind == ir.ValVar {
			res.Relevant[v.Var] = true
		}
	}

	// Seeds.
	seedBlocks := make(map[int]bool)
	for _, b := range fn.Body().Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpReturn:
				if crit.ReturnValue && in.HasVal {
					addVal(in.Val)
					seedBlocks[b.Index] = true
				}
			case ir.OpCall:
				if crit.ArgsOfCallsTo != nil && crit.ArgsOfCallsTo(in.Fn) {
					for _, a := range in.Args {
						addVal(a)
					}
					seedBlocks[b.Index] = true
				}
			}
		}
	}

	reach := reachesAny(fn, seedBlocks)

	// Fixpoint over data and control dependencies.
	for changed := true; changed; {
		changed = false
		grow := func(v ir.Value) {
			if v.Kind == ir.ValVar && !res.Relevant[v.Var] {
				res.Relevant[v.Var] = true
				changed = true
			}
		}
		for _, b := range fn.Body().Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpAssign:
					if res.Relevant[in.Dst] {
						grow(in.Val)
					}
				case ir.OpLoadField:
					if res.Relevant[in.Dst] {
						grow(in.Obj)
					}
				case ir.OpCompare:
					if res.Relevant[in.Dst] {
						grow(in.A)
						grow(in.B)
					}
				case ir.OpCall:
					if in.Dst != "" && res.Relevant[in.Dst] {
						if !res.CalleesInSlice[in.Fn] {
							res.CalleesInSlice[in.Fn] = true
							changed = true
						}
						for _, a := range in.Args {
							grow(a)
						}
					}
				case ir.OpBranchCond:
					// Control dependence: a branch that can lead to a
					// criterion-bearing block pulls its condition in.
					if in.True != in.False && (reach[in.True] || reach[in.False]) {
						if in.Cond.Kind == ir.ValVar && !res.Relevant[in.Cond.Var] {
							res.Relevant[in.Cond.Var] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return res
}

// reachesAny computes, per block, whether any block in targets is
// reachable from it (including itself).
func reachesAny(fn *ir.Func, targets map[int]bool) []bool {
	n := len(fn.Body().Blocks)
	reach := make([]bool, n)
	// Predecessor map.
	preds := make([][]int, n)
	var two [2]int
	for _, b := range fn.Body().Blocks {
		for _, s := range b.AppendSuccs(two[:0]) {
			preds[s] = append(preds[s], b.Index)
		}
	}
	var work []int
	for t := range targets {
		if !reach[t] {
			reach[t] = true
			work = append(work, t)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range preds[v] {
			if !reach[p] {
				reach[p] = true
				work = append(work, p)
			}
		}
	}
	return reach
}
