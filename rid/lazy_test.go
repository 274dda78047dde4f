package rid

import "testing"

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
