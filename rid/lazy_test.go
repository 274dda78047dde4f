package rid

import (
	"testing"

	"repro/internal/lower"
)

// TestBadGotoInCategory3FailsAddSource: lowering is deferred until a body
// is needed, but the label check is not, so a goto to an undefined label
// fails the load even in a function no analysis would ever lower.
func TestBadGotoInCategory3FailsAddSource(t *testing.T) {
	const src = `
extern int pm_runtime_get_sync(struct device *dev);
extern void pm_runtime_put(struct device *dev);

int drv_op(struct device *dev) {
    pm_runtime_get_sync(dev);
    pm_runtime_put(dev);
    return 0;
}

int util_sum(int a, int b) {
    if (a > b)
        goto done;
    return a + b;
}
`
	a := New(LinuxDPMSpecs())
	err := a.AddSource("util.c", src)
	const want = `lower util.c: util.c:13:9: goto to undefined label "done"`
	if err == nil || err.Error() != want {
		t.Fatalf("AddSource error = %v, want %s", err, want)
	}
	if n := a.NumFunctions(); n != 0 {
		t.Fatalf("failed load left %d functions behind", n)
	}
}

// TestLoadErrorStrings: the loader parses each file once, into recycled
// memory, and a rejected file returns that parse's errors, so every parse
// and goto error reads as it did when each file was parsed with
// ParseFile: the parser's joined messages after "parse", and the first
// bad goto in source order after "lower". A failed load adds no function.
func TestLoadErrorStrings(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"first of two bad gotos",
			"int f(int a) {\n    while (a) {\n        if (a > 1)\n            goto inner;\n    }\n    goto outer;\n}\n",
			`lower util.c: util.c:4:13: goto to undefined label "inner"`},
		{"bad goto in a nested block",
			"int f(int a) {\n    if (a) {\n        while (a) {\n            goto nowhere;\n        }\n    }\n    return 0;\n}\n",
			`lower util.c: util.c:4:13: goto to undefined label "nowhere"`},
		{"bad integer literal",
			"int f(void) {\n    return 09;\n}\n",
			`parse util.c: util.c:2:12: bad integer literal "09"`},
		{"lexer error",
			"int f(void) {\n    return 1 $ 2;\n}\n",
			"parse util.c: util.c:2:14: unexpected character '$'\nutil.c:2:14: expected ;, found ILLEGAL(\"$\")\nutil.c:2:14: expected expression, found ILLEGAL(\"$\")\nutil.c:2:16: expected ;, found INT(\"2\")"},
		{"syntax error in a global initializer",
			"int g = (1 + ;\nint f(void) {\n    return 0;\n}\n",
			"parse util.c: util.c:1:14: expected expression, found ;\nutil.c:2:1: expected ), found int\nutil.c:2:1: expected ;, found int"},
		{"syntax error after a valid function",
			"int f(void) {\n    return 0;\n}\nint g(void) {\n    return 1 +;\n}\n",
			"parse util.c: util.c:5:15: expected expression, found ;\nutil.c:6:1: expected ;, found }"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := New(LinuxDPMSpecs())
			if err := a.AddSource("util.c", tc.src); err == nil || err.Error() != tc.want {
				t.Fatalf("AddSource error = %v, want %s", err, tc.want)
			}
			if n := a.NumFunctions(); n != 0 {
				t.Fatalf("failed load left %d functions behind", n)
			}
			if _, err := lower.Program(map[string]string{"util.c": tc.src}, lower.Options{}); err == nil || err.Error() != tc.want {
				t.Fatalf("lower.Program error = %v, want %s", err, tc.want)
			}
		})
	}
}
