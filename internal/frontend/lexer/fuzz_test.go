package lexer

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/lockgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/frontend/token"
)

// lexerSeeds seed both lexer fuzz targets.
var lexerSeeds = []string{
	"",
	"int f(int a) { return a; }",
	"if (x != NULL && y->f <= 0x10) goto out;",
	"/* comment */ struct device { int pm; }; // eol",
	"a += b << 2; c = ~d % 'x';",
	"\"unterminated",
	"'\\n' \"str\\\"esc\" 0x 123abc $ @ #",
	"int \xff\xfe bad bytes \x00 here",
}

// FuzzLexer checks the scanner's structural invariants on arbitrary input:
// it never panics, always terminates, produces exactly one EOF token (at
// the end), and keeps every token's position inside the source bounds.
// Invalid bytes must surface as Errors(), not as crashes.
func FuzzLexer(f *testing.F) {
	for _, seed := range lexerSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l := New("fuzz.c", src)
		toks := l.All()
		if len(toks) == 0 {
			t.Fatal("All returned no tokens; want at least EOF")
		}
		if last := toks[len(toks)-1]; last.Kind != token.EOF {
			t.Fatalf("last token is %v, want EOF", last.Kind)
		}
		for i, tok := range toks[:len(toks)-1] {
			if tok.Kind == token.EOF {
				t.Fatalf("EOF at index %d of %d, before end of stream", i, len(toks))
			}
			if tok.Line < 1 || tok.Column < 1 {
				t.Fatalf("token %d (%v) has invalid position %v", i, tok.Kind, tok.Pos("fuzz.c"))
			}
		}
		_ = l.Errors() // must be callable; contents are input-dependent
	})
}

// FuzzLexerMatchesReference is the differential guard of the byte-level
// scanner: on any input it must yield the reference scanner's tokens
// (kind, literal, position) and error strings, in order. It skips only the
// two inputs the byte-level scanner accepts on purpose, a leading
// byte-order mark and a '#' directive indented by blanks
// (TestByteOrderMark and TestIndentedDirective pin those).
func FuzzLexerMatchesReference(f *testing.F) {
	for _, seed := range lexerSeeds {
		f.Add(seed)
	}
	for _, src := range generatorSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if strings.HasPrefix(src, bom) || hasIndentedDirective(src) {
			t.Skip("the reference scanner rejects this input by design")
		}
		l, ref := New("fuzz.c", src), newRef("fuzz.c", src)
		for i := 0; ; i++ {
			got, want := l.Next(), ref.Next()
			if got != want {
				t.Fatalf("token %d: got %v at %v, reference %v at %v", i, got, got.Pos("fuzz.c"), want, want.Pos("fuzz.c"))
			}
			if want.Kind == token.EOF {
				break
			}
			if i > len(src) {
				t.Fatalf("no EOF after %d tokens of a %d-byte input", i, len(src))
			}
		}
		got, want := l.Errors(), ref.Errors()
		if len(got) != len(want) {
			t.Fatalf("%d errors %v, reference %d %v", len(got), got, len(want), want)
		}
		for i := range want {
			if got[i].Error() != want[i].Error() {
				t.Fatalf("error %d: %q, reference %q", i, got[i], want[i])
			}
		}
	})
}

// hasIndentedDirective reports whether some '#' in src has only blanks, and
// at least one, before it on its line.
func hasIndentedDirective(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		rest := strings.TrimLeft(line, " \t")
		if len(rest) < len(line) && strings.HasPrefix(rest, "#") {
			return true
		}
	}
	return false
}

// generatorSeeds returns the first files, by name, of a small corpus from
// each of the four generators.
func generatorSeeds() []string {
	var out []string
	add := func(files map[string]string) {
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names[:min(3, len(names))] {
			out = append(out, files[name])
		}
	}
	add(kernelgen.Generate(kernelgen.Config{Seed: 1, Mix: kernelgen.Mix{
		CorrectErrHandled: 1, BugGetErrReturn: 1, BugWrapperErrPath: 1, CorrectLoop: 1, FPBitmask: 1,
	}, SimpleHelpers: 1, ComplexHelpers: 1, OtherFuncs: 2}).Files)
	add(pycgen.Generate(pycgen.Config{Name: "seed", Seed: 1, Mix: pycgen.Mix{
		Common: 1, RIDOnly: 1, CpyOnly: 1, Correct: 1,
	}}).Files)
	add(lockgen.Generate(lockgen.Config{Seed: 1, Mix: lockgen.DefaultMix()}).Files)
	add(fdgen.Generate(fdgen.Config{Seed: 1, Mix: fdgen.DefaultMix()}).Files)
	return out
}
