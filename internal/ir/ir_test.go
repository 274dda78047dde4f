package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/frontend/token"
)

func TestPredNegate(t *testing.T) {
	pairs := map[Pred]Pred{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}
	for p, want := range pairs {
		if got := p.Negate(); got != want {
			t.Errorf("%s.Negate() = %s, want %s", p, got, want)
		}
		if got := p.Negate().Negate(); got != p {
			t.Errorf("double negation of %s = %s", p, got)
		}
	}
}

func TestPredFlip(t *testing.T) {
	pairs := map[Pred]Pred{EQ: EQ, NE: NE, LT: GT, LE: GE, GT: LT, GE: LE}
	for p, want := range pairs {
		if got := p.Flip(); got != want {
			t.Errorf("%s.Flip() = %s, want %s", p, got, want)
		}
	}
}

// Property: p.Eval(a,b) == p.Flip().Eval(b,a) and p.Eval == !p.Negate().Eval.
func TestPredEvalLaws(t *testing.T) {
	preds := []Pred{EQ, NE, LT, LE, GT, GE}
	f := func(a, b int8) bool {
		x, y := int64(a), int64(b)
		for _, p := range preds {
			if p.Eval(x, y) != p.Flip().Eval(y, x) {
				return false
			}
			if p.Eval(x, y) == p.Negate().Eval(x, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredFromToken(t *testing.T) {
	for tok, want := range map[token.Kind]Pred{
		token.EQ: EQ, token.NE: NE, token.LT: LT,
		token.LE: LE, token.GT: GT, token.GE: GE,
	} {
		got, ok := PredFromToken(tok)
		if !ok || got != want {
			t.Errorf("PredFromToken(%s) = %s, %t", tok, got, ok)
		}
	}
	if _, ok := PredFromToken(token.PLUS); ok {
		t.Error("PLUS is not a predicate")
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Var("dev"), "dev"},
		{Int(-3), "-3"},
		{Bool(true), "true"},
		{Null(), "null"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestInstrString(t *testing.T) {
	tests := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAssign, Dst: "x", Val: Int(5)}, "x = 5"},
		{Instr{Op: OpLoadField, Dst: "t", Obj: Var("dev"), Field: "pm"}, "t = dev.pm"},
		{Instr{Op: OpRandom, Dst: "r"}, "r = random"},
		{Instr{Op: OpCall, Dst: "v", Fn: "f", Args: []Value{Var("a"), Int(1)}}, "v = f(a, 1)"},
		{Instr{Op: OpCall, Fn: "g"}, "g()"},
		{Instr{Op: OpReturn, Val: Int(0), HasVal: true}, "return 0"},
		{Instr{Op: OpReturn}, "return"},
		{Instr{Op: OpCompare, Dst: "c", Pred: LT, A: Var("a"), B: Int(0)}, "c = a < 0"},
		{Instr{Op: OpBranchCond, Cond: Var("c"), True: 1, False: 2}, "branch c, b1, b2"},
		{Instr{Op: OpBranch, Target: 3}, "branch b3"},
		{Instr{Op: OpAssume, Cond: Var("c")}, "assume c"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func buildFunc() *Func {
	f := &Func{Name: "f", Params: []string{"a"}}
	b0 := f.Body().NewBlock()
	b1 := f.Body().NewBlock()
	b2 := f.Body().NewBlock()
	b0.Instrs = append(b0.Instrs,
		&Instr{Op: OpCompare, Dst: "c", Pred: GT, A: Var("a"), B: Int(0)},
		&Instr{Op: OpBranchCond, Cond: Var("c"), True: b1.Index, False: b2.Index},
	)
	b1.Instrs = append(b1.Instrs,
		&Instr{Op: OpCall, Dst: "x", Fn: "g", Args: []Value{Var("a")}},
		&Instr{Op: OpBranch, Target: b2.Index},
	)
	b2.Instrs = append(b2.Instrs, &Instr{Op: OpReturn, Val: Int(0), HasVal: true})
	return f
}

func TestBlockSuccs(t *testing.T) {
	f := buildFunc()
	if got := f.Body().Blocks[0].Succs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("b0 succs: %v", got)
	}
	if got := f.Body().Blocks[1].Succs(); len(got) != 1 || got[0] != 2 {
		t.Errorf("b1 succs: %v", got)
	}
	if got := f.Body().Blocks[2].Succs(); got != nil {
		t.Errorf("return block succs: %v", got)
	}
}

func TestBranchCondSameTargets(t *testing.T) {
	in := Instr{Op: OpBranchCond, Cond: Var("c"), True: 1, False: 1}
	b := &Block{Instrs: []*Instr{&in}}
	if got := b.Succs(); len(got) != 1 {
		t.Errorf("degenerate branch succs: %v", got)
	}
}

func TestProgramAddAndExterns(t *testing.T) {
	p := NewProgram()
	p.AddExtern("g")
	if !p.Externs["g"] {
		t.Fatal("extern not recorded")
	}
	p.Add(buildFunc())
	g := &Func{Name: "g"}
	g.Body().NewBlock().Instrs = []*Instr{{Op: OpReturn}}
	p.Add(g)
	if p.Externs["g"] {
		t.Error("definition must clear extern mark")
	}
	// Last definition wins (weak-symbol behavior).
	g2 := &Func{Name: "g", Params: []string{"x"}}
	g2.Body().NewBlock().Instrs = []*Instr{{Op: OpReturn}}
	p.Add(g2)
	if len(p.Funcs["g"].Params) != 1 {
		t.Error("redefinition should replace")
	}
	if len(p.Order) != 2 {
		t.Errorf("order: %v", p.Order)
	}
}

func TestValidateCatchesUnterminated(t *testing.T) {
	p := NewProgram()
	f := &Func{Name: "bad"}
	f.Body().NewBlock() // empty block, no terminator
	p.Add(f)
	if err := p.Validate(); err == nil {
		t.Error("unterminated block must fail validation")
	}
}

func TestValidateCatchesOutOfRangeBranch(t *testing.T) {
	p := NewProgram()
	f := &Func{Name: "bad"}
	b := f.Body().NewBlock()
	b.Instrs = []*Instr{{Op: OpBranch, Target: 7}}
	p.Add(f)
	if err := p.Validate(); err == nil {
		t.Error("out-of-range branch must fail validation")
	}
}

func TestValidateCatchesMidBlockTerminator(t *testing.T) {
	p := NewProgram()
	f := &Func{Name: "bad"}
	b := f.Body().NewBlock()
	b.Instrs = []*Instr{
		{Op: OpReturn},
		{Op: OpAssign, Dst: "x", Val: Int(1)},
		{Op: OpReturn},
	}
	p.Add(f)
	if err := p.Validate(); err == nil {
		t.Error("mid-block terminator must fail validation")
	}
}

func TestFuncString(t *testing.T) {
	text := buildFunc().String()
	for _, want := range []string{"func f(a):", "b0:", "branch c, b1, b2", "return 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}
