package ir_test

import (
	"testing"

	"repro/internal/lower"
)

// Validate runs on every loaded program — once in lower.Program and once
// more before each analysis — so it must not allocate per block.
func TestValidateDoesNotAllocate(t *testing.T) {
	prog, err := lower.SourceString("v.c", `
int f(int a, int b) {
	int i;
	for (i = 0; i < a; i++) {
		if (i == b && a > 2)
			return 1;
	}
	switch (a) {
	case 1: return 2;
	default: break;
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Funcs["f"].Blocks); n < 8 {
		t.Fatalf("want a multi-block function, got %d blocks", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := prog.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocated %.0f times per run, want 0", allocs)
	}
}
