// Package interp is a concrete interpreter for the abstract IR. It gives
// the repository a dynamic oracle: running a function many times with
// random inputs and observing (return value, net refcount changes) pairs
// yields *dynamic IPP witnesses* — two executions with the same arguments
// and the same return value but different refcount deltas. Witnesses
// validate the corpus ground truth and the static analysis against actual
// execution semantics (see TestDifferential* in interp_test.go and the
// kernelgen differential tests).
//
// Extern refcount APIs execute according to their predefined summaries:
// a summary entry is chosen uniformly among those whose constraints can be
// satisfied concretely, its changes are applied to the refcount store, and
// its return expression is evaluated (unconstrained returns draw from a
// small integer range so that cross-execution return collisions — the
// precondition for a witness — actually occur).
package interp

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ir"
	"repro/internal/spec"
	"repro/internal/sym"
)

// Config controls one interpreter instance.
type Config struct {
	// MaxSteps bounds total instructions per call (loops!); default 10000.
	MaxSteps int
	// HavocRange r draws unknown values from [-r, r]; default 3.
	HavocRange int64
}

// Interp executes functions of one program.
type Interp struct {
	prog  *ir.Program
	specs *spec.Specs
	rng   *rand.Rand
	cfg   Config

	heap   map[int64]map[string]int64 // object id → field → value
	nextID int64
	counts map[string]int64 // refcount key → current value

	// Block trajectory of the top-level frame, recorded when traceOn is
	// set (witness replay matches it against a recorded cfg.Path).
	traceOn bool
	trace   []int
}

// New returns an interpreter; seed fixes all non-determinism.
func New(prog *ir.Program, specs *spec.Specs, seed int64, cfg Config) *Interp {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 10000
	}
	if cfg.HavocRange == 0 {
		cfg.HavocRange = 3
	}
	return &Interp{
		prog:   prog,
		specs:  specs,
		rng:    rand.New(rand.NewSource(seed)),
		cfg:    cfg,
		heap:   make(map[int64]map[string]int64),
		counts: make(map[string]int64),
	}
}

// NewObject allocates a fresh heap object and returns its address (object
// addresses are positive and even so they never collide with small scalar
// values drawn from the havoc range; 0 is null).
func (ip *Interp) NewObject() int64 {
	ip.nextID++
	id := 1000 + ip.nextID*2
	ip.heap[id] = make(map[string]int64)
	return id
}

// Refcounts returns the refcount store as a sorted key→value snapshot.
func (ip *Interp) Refcounts() map[string]int64 {
	out := make(map[string]int64, len(ip.counts))
	for k, v := range ip.counts {
		out[k] = v
	}
	return out
}

// ResetCounts clears the refcount store (between trials).
func (ip *Interp) ResetCounts() { ip.counts = make(map[string]int64) }

// Outcome is the observable result of one execution.
type Outcome struct {
	Ret    int64
	HasRet bool
	// Deltas is the net refcount change per object key, with zero entries
	// removed.
	Deltas map[string]int64
	// Steps is the instruction count (for loop-bound diagnostics).
	Steps int
	// Trapped reports that MaxSteps was exceeded.
	Trapped bool
}

// Key renders the (return, deltas) pair canonically for witness grouping.
func (o Outcome) Key() string {
	keys := make([]string, 0, len(o.Deltas))
	for k := range o.Deltas {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "ret:"
	if o.HasRet {
		s += fmt.Sprint(o.Ret)
	} else {
		s += "void"
	}
	for _, k := range keys {
		s += fmt.Sprintf(" %s:%+d", k, o.Deltas[k])
	}
	return s
}

// RetKey groups outcomes by return value only.
func (o Outcome) RetKey() string {
	if !o.HasRet {
		return "void"
	}
	return fmt.Sprint(o.Ret)
}

// Call executes fn with the given concrete arguments and returns the
// outcome. Refcount deltas are measured relative to the store at entry.
func (ip *Interp) Call(fn string, args []int64) (Outcome, error) {
	before := ip.Refcounts()
	ret, hasRet, steps, trapped, err := ip.run(fn, args, 0)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Ret: ret, HasRet: hasRet, Steps: steps, Trapped: trapped, Deltas: map[string]int64{}}
	for k, v := range ip.counts {
		if d := v - before[k]; d != 0 {
			out.Deltas[k] = d
		}
	}
	for k, v := range before {
		if _, ok := ip.counts[k]; !ok && v != 0 {
			out.Deltas[k] = -v
		}
	}
	return out, nil
}

const maxDepth = 64

func (ip *Interp) run(fnName string, args []int64, depth int) (ret int64, hasRet bool, steps int, trapped bool, err error) {
	if depth > maxDepth {
		return 0, false, 0, true, nil
	}
	fn := ip.prog.Funcs[fnName]
	if fn == nil {
		// Extern: predefined API or havoc.
		r, has := ip.extern(fnName, args)
		return r, has, 1, false, nil
	}
	env := make(map[string]int64, len(fn.Params))
	for i, p := range fn.Params {
		if i < len(args) {
			env[p] = args[i]
		}
	}
	block := 0
	for {
		if depth == 0 && ip.traceOn {
			ip.trace = append(ip.trace, block)
		}
		blk := fn.Body().Blocks[block]
		for _, in := range blk.Instrs {
			steps++
			if steps > ip.cfg.MaxSteps {
				return 0, false, steps, true, nil
			}
			switch in.Op {
			case ir.OpAssign:
				env[in.Dst] = ip.eval(env, in.Val)
			case ir.OpLoadField:
				env[in.Dst] = ip.loadField(ip.eval(env, in.Obj), in.Field)
			case ir.OpRandom:
				env[in.Dst] = ip.havoc()
			case ir.OpCompare:
				a, b := ip.eval(env, in.A), ip.eval(env, in.B)
				env[in.Dst] = boolToInt(in.Pred.Eval(a, b))
			case ir.OpAssume:
				if ip.eval(env, in.Cond) == 0 {
					// Assumption failed: treat as a trap (the analysis
					// ignores this path too).
					return 0, false, steps, true, nil
				}
			case ir.OpCall:
				callArgs := make([]int64, len(in.Args))
				for i, a := range in.Args {
					callArgs[i] = ip.eval(env, a)
				}
				r, has, s, tr, cerr := ip.run(in.Fn, callArgs, depth+1)
				steps += s
				if cerr != nil {
					return 0, false, steps, false, cerr
				}
				if tr {
					return 0, false, steps, true, nil
				}
				if in.Dst != "" {
					if has {
						env[in.Dst] = r
					} else {
						env[in.Dst] = ip.havoc()
					}
				}
			case ir.OpReturn:
				if in.HasVal {
					return ip.eval(env, in.Val), true, steps, false, nil
				}
				return 0, false, steps, false, nil
			case ir.OpBranch:
				block = in.Target
			case ir.OpBranchCond:
				if ip.eval(env, in.Cond) != 0 {
					block = in.True
				} else {
					block = in.False
				}
			}
			if in.IsTerminator() && in.Op != ir.OpReturn {
				break
			}
		}
	}
}

func (ip *Interp) eval(env map[string]int64, v ir.Value) int64 {
	switch v.Kind {
	case ir.ValVar:
		if x, ok := env[v.Var]; ok {
			return x
		}
		// Read before assignment: havoc once and remember.
		x := ip.havoc()
		env[v.Var] = x
		return x
	case ir.ValInt:
		return v.Int
	case ir.ValBool:
		return boolToInt(v.Bool)
	case ir.ValNull:
		return 0
	}
	return 0
}

func (ip *Interp) havoc() int64 {
	r := ip.cfg.HavocRange
	return ip.rng.Int63n(2*r+1) - r
}

// loadField reads obj.field, lazily materializing nested objects so field
// chains like intf.dev stay stable across the execution.
func (ip *Interp) loadField(obj int64, field string) int64 {
	h, ok := ip.heap[obj]
	if !ok {
		// Field access on a non-object (null or scalar): havoc.
		return ip.havoc()
	}
	if v, ok := h[field]; ok {
		return v
	}
	// Fields accessed as objects (e.g. &intf->dev) get fresh objects;
	// scalar reads will just use the address as an opaque value, which is
	// harmless because the abstraction never does arithmetic on it.
	v := ip.NewObject()
	h[field] = v
	return v
}

// extern executes an undefined callee: a predefined refcount API applies a
// concretely chosen summary entry; anything else is havoc.
func (ip *Interp) extern(fn string, args []int64) (int64, bool) {
	api := ip.specs.APIs[fn]
	if api == nil {
		return ip.havoc(), true
	}
	entries := api.Summary.Entries
	// Choose uniformly among entries whose argument constraints hold; the
	// return value is then drawn to satisfy the entry's [0] constraints.
	type cand struct {
		idx int
		ret int64
		has bool
	}
	var cands []cand
	for i, e := range entries {
		ret, has, ok := ip.concretize(e.Cons, e.Ret, api.Params, args, api.NewRef)
		if ok {
			cands = append(cands, cand{i, ret, has})
		}
	}
	if len(cands) == 0 {
		return ip.havoc(), true
	}
	c := cands[ip.rng.Intn(len(cands))]
	e := entries[c.idx]
	for _, ch := range e.Changes {
		key, ok := ip.refcountKey(ch.RC, api.Params, args, c.ret)
		if ok {
			ip.counts[key] += int64(ch.Delta)
		}
	}
	return c.ret, c.has
}

// concretize checks an entry's argument constraints against concrete args
// and picks a return value compatible with its [0] constraints. Only the
// constraint shapes the spec DSL produces are supported: comparisons of
// [param] or [0] against constants/null.
func (ip *Interp) concretize(cons sym.Set, retExpr *sym.Expr, params []string, args []int64, newRef bool) (ret int64, has bool, ok bool) {
	// Evaluate the return expression first when it is concrete.
	retFixed := false
	if retExpr != nil {
		has = true
		if v, isConst := retExpr.IsConst(); isConst {
			ret = v
			retFixed = true
		}
	}
	// Try a handful of draws for an unconstrained return.
	for attempt := 0; attempt < 16; attempt++ {
		if has && !retFixed {
			if newRef && attempt == 0 {
				// Allocation APIs usually succeed: bias the first attempt
				// toward a fresh object.
				ret = ip.NewObject()
			} else {
				ret = ip.havoc()
			}
		}
		good := true
		for _, c := range cons.Conds() {
			if c.Kind != sym.KCond {
				continue
			}
			av, aok := ip.term(c.A, params, args, ret, has)
			bv, bok := ip.term(c.B, params, args, ret, has)
			if !aok || !bok {
				continue // unsupported term: treat as satisfied
			}
			if !c.Pred.Eval(av, bv) {
				good = false
				break
			}
		}
		if good {
			return ret, has, true
		}
		if retFixed || !has {
			return 0, has, false
		}
	}
	return 0, has, false
}

func (ip *Interp) term(e *sym.Expr, params []string, args []int64, ret int64, hasRet bool) (int64, bool) {
	if v, ok := e.IsConst(); ok {
		return v, true
	}
	switch e.Kind {
	case sym.KArg:
		for i, p := range params {
			if p == e.Name && i < len(args) {
				return args[i], true
			}
		}
	case sym.KRet:
		if hasRet {
			return ret, true
		}
	}
	return 0, false
}

// refcountKey maps a change expression ([dev].pm, [0].rc) to a concrete
// store key based on the object's address.
func (ip *Interp) refcountKey(rc *sym.Expr, params []string, args []int64, ret int64) (string, bool) {
	switch rc.Kind {
	case sym.KField:
		base, ok := ip.refcountBase(rc.Base, params, args, ret)
		if !ok {
			return "", false
		}
		return fmt.Sprintf("%d.%s", base, rc.Name), true
	}
	return "", false
}

func (ip *Interp) refcountBase(e *sym.Expr, params []string, args []int64, ret int64) (int64, bool) {
	switch e.Kind {
	case sym.KArg:
		for i, p := range params {
			if p == e.Name && i < len(args) {
				return args[i], true
			}
		}
	case sym.KRet:
		return ret, true
	case sym.KField:
		base, ok := ip.refcountBase(e.Base, params, args, ret)
		if !ok {
			return 0, false
		}
		return ip.loadField(base, e.Name), true
	}
	return 0, false
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Dynamic IPP witnesses

// Witness is a pair of executions with identical arguments and return
// values but different refcount deltas — the runtime counterpart of an
// inconsistent path pair.
type Witness struct {
	Fn   string
	A, B Outcome
}

// FindWitness runs fn up to trials times with fresh random seeds (same
// argument objects each trial) and reports a dynamic IPP witness if one
// occurs. ptrParams lists which parameters receive object addresses (the
// rest draw small scalars once and stay fixed across trials).
func FindWitness(prog *ir.Program, specs *spec.Specs, fn string, ptrParams []bool, trials int, seed int64) (*Witness, error) {
	f := prog.Funcs[fn]
	if f == nil {
		return nil, fmt.Errorf("function %s not defined", fn)
	}
	byRet := make(map[string]Outcome)
	for trial := 0; trial < trials; trial++ {
		ip := New(prog, specs, seed+int64(trial)*7919, Config{})
		args := make([]int64, len(f.Params))
		argRng := rand.New(rand.NewSource(seed)) // same args every trial
		for i := range args {
			if i < len(ptrParams) && ptrParams[i] {
				args[i] = ip.NewObject()
			} else {
				// Small positive scalars: loop bounds must admit at least
				// one iteration for loop-path bugs to be reachable.
				args[i] = 1 + argRng.Int63n(3)
			}
		}
		out, err := ip.Call(fn, args)
		if err != nil {
			return nil, err
		}
		if out.Trapped {
			continue
		}
		// Deltas are keyed by concrete object addresses, which differ
		// across interpreter instances; normalize by position.
		norm := normalizeDeltas(out)
		if prev, ok := byRet[out.RetKey()]; ok {
			if normalizeDeltas(prev) != norm {
				return &Witness{Fn: fn, A: prev, B: out}, nil
			}
		} else {
			byRet[out.RetKey()] = out
		}
	}
	return nil, nil
}

// DeltaSignature canonicalizes the outcome's refcount delta multiset,
// ignoring object addresses (which differ across interpreter instances):
// two outcomes with equal signatures applied the same net changes to the
// same field paths. It is the comparison FindWitness uses and the one
// witness replay uses to decide confirmed-by-replay vs replay-diverged.
func (o Outcome) DeltaSignature() string { return normalizeDeltas(o) }

// normalizeDeltas canonicalizes delta multisets ignoring object addresses.
func normalizeDeltas(o Outcome) string {
	var parts []string
	for k, v := range o.Deltas {
		// Strip the address, keep the field path and delta.
		field := k
		for i := 0; i < len(k); i++ {
			if k[i] == '.' {
				field = k[i:]
				break
			}
		}
		parts = append(parts, fmt.Sprintf("%s:%+d", field, v))
	}
	sort.Strings(parts)
	s := ""
	for _, p := range parts {
		s += p + ";"
	}
	return s
}
