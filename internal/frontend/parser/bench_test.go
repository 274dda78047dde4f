package parser

import (
	"sort"
	"testing"

	"repro/internal/corpus/kernelgen"
	"repro/internal/frontend/ast"
)

// BenchmarkParseFile parses every file of the Table-1-shape kernelgen tree
// (the experiments' DefaultTable1: seed 317, 250 simple and 372 complex
// helpers, 10,000 category-3 functions), one op per tree. Throughput is
// source bytes per second.
func BenchmarkParseFile(b *testing.B) {
	c := kernelgen.Generate(kernelgen.Config{
		Seed: 317, Mix: kernelgen.PaperMix(), SimpleHelpers: 250, ComplexHelpers: 372, OtherFuncs: 10000,
	})
	names := make([]string, 0, len(c.Files))
	size := 0
	for name, src := range c.Files {
		names = append(names, name)
		size += len(src)
	}
	sort.Strings(names)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			f, err := ParseFile(name, c.Files[name])
			if err != nil {
				b.Fatal(err)
			}
			parseSink = f
		}
	}
}

var parseSink *ast.File
