package parser_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/lower"
)

// FuzzParser checks the parser and printer against each other on
// arbitrary input. Invalid sources must fail with an error, never a
// panic. For any source that parses, the printed form is the parser's own
// normalization of the program, so it must (a) parse again without error
// and (b) print identically the second time — print∘parse is idempotent.
// A violation means the printer emits syntax the grammar rejects, or
// loses/invents structure on the way through. Every parsed file that
// lowers must also give each function Calls equal to the callee set of its
// lowered body, and every body must validate.
func FuzzParser(f *testing.F) {
	for _, seed := range []string{
		"",
		"int f(int a) { return a; }",
		`int drv_op(struct device *dev) {
    int ret = pm_runtime_get_sync(dev);
    if (ret < 0)
        return ret;
    pm_runtime_put(dev);
    return 0;
}`,
		`void g(struct s *p) {
    int i;
    for (i = 0; i < 4; i++) {
        if (p->cnt != 0 && i % 2 == 0)
            continue;
        p->cnt += i;
    }
    while (p->cnt > 0)
        p->cnt--;
}`,
		`int h(int x) {
    switch (x) {
    case 0:
        return 1;
    case 1:
        break;
    default:
        goto out;
    }
out:
    return -1;
}`,
		"struct device { int pm; };\nextern int probe(struct device *d);",
		"int bad( { ; } }",
		"assert(p != NULL); int",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := parser.ParseFile("fuzz.c", src)
		if err != nil {
			return // rejected input: cleanly failing is all that's required
		}
		p1 := ast.Print(file)
		file2, err := parser.ParseFile("fuzz.c", p1)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\nsource:\n%s\nprinted:\n%s", err, src, p1)
		}
		if p2 := ast.Print(file2); p1 != p2 {
			t.Fatalf("print/parse not idempotent\nfirst:\n%s\nsecond:\n%s", p1, p2)
		}
		prog := ir.NewProgram()
		if lower.IntoOpts(prog, file, lower.Options{}) != nil {
			return // a goto to an undefined label
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("lowered body invalid: %v\nsource:\n%s", err, src)
		}
		for _, name := range prog.Order {
			f := prog.Funcs[name]
			var callees []string
			for _, b := range f.Body().Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall {
						callees = append(callees, in.Fn)
					}
				}
			}
			slices.Sort(callees)
			if callees = slices.Compact(callees); !reflect.DeepEqual(f.Calls, callees) {
				t.Fatalf("%s: Calls %v, lowered IR calls %v\nsource:\n%s", name, f.Calls, callees, src)
			}
		}
	})
}
