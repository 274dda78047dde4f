// Incremental demonstrates the §5.4 workflow the paper proposes for
// recovering from RID's drop-one-side rule: analyze, fix a reported
// function, then re-check only that function and its transitive callers,
// reusing every other function's result from the previous run.
//
// The reuse comes from the summary store (Options.CacheDir). Its entries
// are keyed by the content of each function and of its callees, not by
// file name or line: the fixed source below is saved as v2.c, and the fix
// shifts other_driver down two lines, yet other_driver and wrapper_get are
// still replayed from the store.
//
// Run with: go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"os"

	"repro/rid"
)

const v1 = `
struct device;
extern int pm_runtime_get_sync(struct device *dev);
extern int pm_runtime_put(struct device *dev);
extern int pm_runtime_put_noidle(struct device *dev);
extern int do_transfer(struct device *dev);

int wrapper_get(struct device *dev) {
    return pm_runtime_get_sync(dev);
}

/* BUG: wrapper_get passes the unconditional +1 through; the error return
 * leaks it. */
int op(struct device *dev) {
    int ret;
    ret = wrapper_get(dev);
    if (ret < 0)
        return ret;
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}

int other_driver(struct device *dev) {
    pm_runtime_get_sync(dev);
    do_transfer(dev);
    pm_runtime_put(dev);
    return 0;
}
`

const v2 = `
struct device;
extern int pm_runtime_get_sync(struct device *dev);
extern int pm_runtime_put(struct device *dev);
extern int pm_runtime_put_noidle(struct device *dev);
extern int do_transfer(struct device *dev);

int wrapper_get(struct device *dev) {
    return pm_runtime_get_sync(dev);
}

/* FIXED: the error path now balances the count. */
int op(struct device *dev) {
    int ret;
    ret = wrapper_get(dev);
    if (ret < 0) {
        pm_runtime_put_noidle(dev);
        return ret;
    }
    ret = do_transfer(dev);
    pm_runtime_put(dev);
    return ret;
}

int other_driver(struct device *dev) {
    pm_runtime_get_sync(dev);
    do_transfer(dev);
    pm_runtime_put(dev);
    return 0;
}
`

func main() {
	dir, err := os.MkdirTemp("", "rid-incremental-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	first := analyze(dir, "v1.c", v1)
	fmt.Println("Initial analysis:")
	for _, b := range first.Bugs {
		fmt.Printf("  %s\n", b)
	}
	fmt.Printf("  functions summarized: %d\n\n", first.FuncsAnalyzed)

	second := analyze(dir, "v2.c", v2)
	fmt.Println("After fixing op() in v2.c, recheck against the summary store:")
	if len(second.Bugs) == 0 {
		fmt.Println("  no reports — the fix holds")
	}
	for _, b := range second.Bugs {
		fmt.Printf("  %s\n", b)
	}
	fmt.Printf("  functions re-summarized: %d, replayed from the store: %d\n",
		second.MetricValue("store_misses"), second.MetricValue("store_hits"))
}

// analyze runs one file through a fresh analyzer whose summary store is
// dir. Each analyzer counts into its own registry, so the store counters
// are this run's alone.
func analyze(dir, name, src string) *rid.Result {
	a := rid.New(rid.LinuxDPMSpecs())
	a.SetOptions(rid.Options{CacheDir: dir})
	if err := a.AddSource(name, src); err != nil {
		log.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}
