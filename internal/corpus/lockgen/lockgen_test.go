package lockgen

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lower"
	"repro/internal/spec"
)

func buildProgram(t testing.TB, c *Corpus) *ir.Program {
	t.Helper()
	prog, err := lower.Program(c.Files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// ptrParams marks the generator's pointer parameters by name.
func ptrParams(params []string) []bool {
	out := make([]bool, len(params))
	for i, p := range params {
		switch p {
		case "l", "m", "d":
			out[i] = true
		}
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 5, Mix: DefaultMix()})
	b := Generate(Config{Seed: 5, Mix: DefaultMix()})
	if len(a.Files) != len(b.Files) {
		t.Fatalf("file counts differ: %d vs %d", len(a.Files), len(b.Files))
	}
	for n, src := range a.Files {
		if b.Files[n] != src {
			t.Errorf("file %s differs between identical-seed runs", n)
		}
	}
}

// TestDetectionMatrix pins the pack's reach statically: detectable bugs
// and FP patterns are reported, everything else is silent.
func TestDetectionMatrix(t *testing.T) {
	c := Generate(Config{Seed: 11, Mix: DefaultMix()})
	prog := buildProgram(t, c)
	res := core.Analyze(context.Background(), prog, spec.Lock(), core.Options{})

	reported := map[string]bool{}
	for _, r := range res.Reports {
		reported[r.Fn] = true
		if r.Resource != "lock" {
			t.Errorf("%s: report resource = %q, want \"lock\"", r.Fn, r.Resource)
		}
	}
	for fn, info := range c.Truth {
		want := info.Detectable || info.FPExpected
		if reported[fn] != want {
			t.Errorf("%s (%s): reported=%t, want %t", fn, info.Pattern, reported[fn], want)
		}
	}
	for _, w := range c.Wrappers {
		if reported[w] {
			t.Errorf("wrapper %s reported", w)
		}
	}
}
