package callgraph

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/corpus/fdgen"
	"repro/internal/corpus/kernelgen"
	"repro/internal/corpus/lockgen"
	"repro/internal/corpus/pycgen"
	"repro/internal/lower"
)

// TestCondenseMatchesReference pins Build's SCC order, member order and
// condensation DAG on every corpus family to the string-keyed Tarjan and
// per-SCC seen maps it replaced (refTarjan and the loop below).
func TestCondenseMatchesReference(t *testing.T) {
	sets := map[string]map[string]string{
		"kernelgen": kernelgen.Generate(kernelgen.Config{Seed: 317, Mix: kernelgen.PaperMix(), SimpleHelpers: 250, ComplexHelpers: 372, OtherFuncs: 2000}).Files,
		"pycgen":    pycgen.Generate(pycgen.PaperConfigs()[0]).Files,
		"lockgen":   lockgen.Generate(lockgen.Config{Seed: 317, Mix: lockgen.DefaultMix()}).Files,
		"fdgen":     fdgen.Generate(fdgen.Config{Seed: 317, Mix: fdgen.DefaultMix()}).Files,
		"cycles": {"c.c": `
int a(int x) { return b(x) + e(x); }
int b(int x) { return c(x) + a(x); }
int c(int x) { return a(x) + d(x); }
int d(int x) { return d(x) + f(x); }
int e(int x) { return f(x); }
int f(int x) { return e(x) + g(x); }
int g(int x) { return x; }
`},
	}
	for name, files := range sets {
		prog, err := lower.Program(files, lower.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := Build(prog)
		out := map[string][]string{} // edges to defined callees
		for _, fn := range g.Nodes {
			for _, c := range g.All[fn] {
				if _, defined := prog.Funcs[c]; defined {
					out[fn] = append(out[fn], c)
				}
			}
		}
		sccs := refTarjan(g.Nodes, func(n string) []string { return out[n] })
		if !reflect.DeepEqual(g.SCCs(), sccs) {
			t.Fatalf("%s: SCCs differ from the reference", name)
		}
		sccOf := map[string]int{}
		for id, comp := range sccs {
			for _, m := range comp {
				sccOf[m] = id
			}
		}
		for i, comp := range sccs {
			seen := map[int]bool{i: true}
			var dag []int
			for _, m := range comp {
				for _, c := range out[m] {
					if cs := sccOf[c]; !seen[cs] {
						seen[cs] = true
						dag = append(dag, cs)
					}
				}
			}
			sort.Ints(dag)
			if got := g.SCCSuccs(i); !reflect.DeepEqual(got, dag) {
				t.Fatalf("%s: SCC %d successors %v, reference %v", name, i, got, dag)
			}
		}
	}
}

// refTarjan computes the strongly connected components of the graph whose
// edges run from each node to succs(node), iteratively (generated corpora
// have deep chains). Components come out in reverse topological order —
// each after every component it reaches — with members sorted. Roots are
// tried in nodes order and successors in the order succs returns them,
// which makes the component order deterministic. succs is called once per
// node.
func refTarjan(nodes []string, succs func(string) []string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var out [][]string
	next := 0

	type frame struct {
		node string
		ei   int
		ss   []string
	}
	var frames []frame
	push := func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{node: v, ss: succs(v)})
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(f.ss) {
				w := f.ss[f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					push(w)
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Pop frame; maybe emit a component.
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.node] {
					low[p.node] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Strings(comp) // deterministic member order
				out = append(out, comp)
			}
		}
	}
	return out
}
