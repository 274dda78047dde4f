package pungi

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus/pycgen"
	"repro/internal/lower"
	"repro/internal/spec"
)

func check(t *testing.T, src string) []*Report {
	t.Helper()
	prog, err := lower.SourceString("m.c", src)
	if err != nil {
		t.Fatal(err)
	}
	return New(spec.PythonC(), Config{}).Check(prog)
}

func hits(rs []*Report) map[string]bool {
	out := map[string]bool{}
	for _, r := range rs {
		out[r.Fn] = true
	}
	return out
}

func TestReassignmentBugCaught(t *testing.T) {
	// The non-SSA Cpychecker baseline misses this; Pungi's SSA tracking
	// does not (the paper's §2.1 point about SSA form).
	src := `
PyObject *remake(void) {
    PyObject *o;
    o = PyList_New(1);
    if (o == NULL)
        return NULL;
    o = PyList_New(2);
    if (o == NULL)
        return NULL;
    return o;
}
`
	rs := check(t, src)
	if !hits(rs)["remake"] {
		t.Fatalf("reassignment leak missed: %v", rs)
	}
}

func TestConsistentLeakCaught(t *testing.T) {
	src := `
int always_leak(PyObject *o) {
    Py_INCREF(o);
    return 0;
}
`
	if !hits(check(t, src))["always_leak"] {
		t.Fatal("consistent leak missed")
	}
}

func TestCleanCodeSilent(t *testing.T) {
	src := `
int fill(PyObject *o);
PyObject *make(PyObject *a) {
    PyObject *o;
    o = PyList_New(1);
    if (o == NULL)
        return NULL;
    if (fill(o) < 0) {
        Py_DECREF(o);
        return NULL;
    }
    return o;
}
`
	if rs := check(t, src); len(rs) != 0 {
		t.Fatalf("clean code flagged: %v", rs)
	}
}

func TestWrapperAlwaysFlagged(t *testing.T) {
	// §2.1: "wrappers to the basic refcount APIs ... are always considered
	// an error according to the rule above."
	src := `
void my_incref(PyObject *o) {
    Py_INCREF(o);
}
void my_decref(PyObject *o) {
    Py_DECREF(o);
}
`
	h := hits(check(t, src))
	if !h["my_incref"] || !h["my_decref"] {
		t.Fatalf("wrappers must be flagged: %v", h)
	}
}

// The §2.1 superset claim: on the Python/C corpus, the stronger
// (SSA-based) escape rule finds every bug class — common, RID-only AND
// Cpychecker-only — with the wrapper-style FPs as the price.
func TestSupersetOnPycgenCorpus(t *testing.T) {
	m := pycgen.Generate(pycgen.Config{Name: "sup", Seed: 55, Mix: pycgen.Mix{
		Common: 6, RIDOnly: 6, CpyOnly: 6, Correct: 8,
	}})
	prog, err := lower.Program(m.Files, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := spec.PythonC()
	pungiHits := hits(New(specs, Config{}).Check(prog))
	res := core.Analyze(context.Background(), prog, specs, core.Options{})
	ridHits := map[string]bool{}
	for _, r := range res.Reports {
		ridHits[r.Fn] = true
	}

	for fn, cls := range m.Truth {
		switch cls {
		case pycgen.ClassCommon, pycgen.ClassRIDOnly, pycgen.ClassCpyOnly:
			if !pungiHits[fn] {
				t.Errorf("pungi missed %s (%s)", fn, cls)
			}
		case pycgen.ClassCorrect:
			if pungiHits[fn] {
				t.Errorf("pungi false positive on %s", fn)
			}
		}
		// Superset of RID on bug functions.
		if ridHits[fn] && !pungiHits[fn] {
			t.Errorf("RID found %s but pungi did not — violates the §2.1 claim", fn)
		}
	}
}
