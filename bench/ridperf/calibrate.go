package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// The host this benchmark runs on drifts: identical scans take up to twice
// as long for minutes at a time (bench/README.md has the measurements). A
// round therefore samples a fixed reference kernel outside its timed
// windows and reports every time in reference-machine units:
// raw × refNominal / median(the round's samples). The kernel is the Go
// toolchain's own parser on a source the benchmark synthesizes, so no
// change to the program can move it, and it allocates and chases pointers
// the way the analyzer's frontend does. It runs on one goroutine: against
// both batch shapes, interleaved over the same minutes, one copy tracked
// the drift better than two copies in parallel did, including for the
// Workers=2 scan.

// refNominal is the reference kernel's median at the commit that added
// this benchmark. It only sets the scale of the calibrated numbers.
const refNominal = 11 * time.Millisecond

// refPieces is a fixed set of Go files of straight-line and branchy
// functions.
var refPieces = func() []string {
	pieces := make([]string, 8)
	for p := range pieces {
		var b strings.Builder
		b.WriteString("package ref\n")
		for i := p * 100; i < (p+1)*100; i++ {
			fmt.Fprintf(&b, `func f%d(a, b int, s []string) (int, error) {
	x := a*%d + b
	for i := range s {
		if len(s[i]) > x {
			x += g%d(s[i], i)
		} else if x < 0 {
			return 0, errFoo
		}
	}
	m := map[string]int{"k": x, "v": b}
	return m["k"] + h(x, %d), nil
}
`, i, i%7, i%13, i)
		}
		pieces[p] = b.String()
	}
	return pieces
}()

// reference runs the kernel over every piece and returns the wall time.
// The collector is off while it runs, so the caller's live heap, which the
// collector would mark, does not move the result.
func reference() time.Duration {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	for _, src := range refPieces {
		kernel(src)
	}
	return time.Since(t0)
}

func kernel(src string) {
	f, err := parser.ParseFile(token.NewFileSet(), "ref.go", src, 0)
	if err != nil {
		panic(err) // refPieces are constant inputs
	}
	ids := map[string]int{}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids[id.Name]++
		}
		return true
	})
	if len(ids) == 0 {
		panic("reference kernel saw no identifiers")
	}
}

// calibrate converts a raw metric value to reference-machine units by its
// unit: times scale by f, rates by 1/f, everything else is unchanged.
func calibrate(unit string, v, f float64) float64 {
	switch unit {
	case "s", "ms", "us":
		return v * f
	case "MB/s", "funcs/s", "req/s":
		return ratio(v, f)
	}
	return v
}
