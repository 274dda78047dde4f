// Package callgraph builds the static call graph of an abstract program
// and provides the orderings the analysis needs: Tarjan strongly-connected
// components, and (reverse) topological order over the SCC condensation.
// Recursion is "broken" the way the paper describes (§4.2): functions in a
// cycle are ordered deterministically within their SCC and calls to
// not-yet-summarized members are treated as unknown.
package callgraph

import (
	"sort"

	"repro/internal/ir"
)

// Graph is the call graph over defined functions. Calls to undefined
// functions (externs, predefined APIs) appear in Callees but not as nodes.
type Graph struct {
	Prog  *ir.Program
	Nodes []string            // defined functions, in definition order
	Out   map[string][]string // edges to *defined* callees only
	In    map[string][]string
	All   map[string][]string // edges including undefined callees

	sccOf  map[string]int
	sccs   [][]string // SCC id → members (deterministic order)
	sccDAG [][]int    // SCC id → successor SCC ids
}

// Build constructs the call graph for prog.
func Build(prog *ir.Program) *Graph {
	g := &Graph{
		Prog: prog,
		Out:  make(map[string][]string),
		In:   make(map[string][]string),
		All:  make(map[string][]string),
	}
	for _, name := range prog.Order {
		g.Nodes = append(g.Nodes, name)
	}
	for _, name := range g.Nodes {
		fn := prog.Funcs[name]
		callees := fn.Callees()
		g.All[name] = callees
		for _, c := range callees {
			if _, defined := prog.Funcs[c]; !defined {
				continue
			}
			g.Out[name] = append(g.Out[name], c)
			g.In[c] = append(g.In[c], name)
		}
	}
	g.condense()
	return g
}

// SCCs returns the strongly connected components in reverse topological
// order: every callee SCC appears before any of its callers. This is the
// summarization order of §4.2.
func (g *Graph) SCCs() [][]string { return g.sccs }

// SCCOf returns the SCC index of fn (indices follow SCCs() order).
func (g *Graph) SCCOf(fn string) int { return g.sccOf[fn] }

// SCCSuccs returns, for SCC i, the SCC indices it depends on (its callees'
// SCCs); all of them precede i in SCCs() order.
func (g *Graph) SCCSuccs(i int) []int { return g.sccDAG[i] }

// ReverseTopo returns the defined functions with callees before callers.
func (g *Graph) ReverseTopo() []string {
	var out []string
	for _, scc := range g.sccs {
		out = append(out, scc...)
	}
	return out
}

// Topo returns the defined functions with callers before callees.
func (g *Graph) Topo() []string {
	rt := g.ReverseTopo()
	out := make([]string, len(rt))
	for i, f := range rt {
		out[len(rt)-1-i] = f
	}
	return out
}

// condense computes the SCCs, each function's SCC index, and the
// condensation DAG.
func (g *Graph) condense() {
	g.sccs = Tarjan(g.Nodes, func(n string) []string { return g.Out[n] })
	g.sccOf = make(map[string]int, len(g.Nodes))
	for id, comp := range g.sccs {
		for _, m := range comp {
			g.sccOf[m] = id
		}
	}
	// Tarjan emits SCCs in reverse topological order already.
	g.sccDAG = make([][]int, len(g.sccs))
	for i, comp := range g.sccs {
		seen := map[int]bool{i: true}
		for _, m := range comp {
			for _, c := range g.Out[m] {
				cs := g.sccOf[c]
				if !seen[cs] {
					seen[cs] = true
					g.sccDAG[i] = append(g.sccDAG[i], cs)
				}
			}
		}
		sort.Ints(g.sccDAG[i])
	}
}

// Tarjan computes the strongly connected components of the graph whose
// edges run from each node to succs(node), iteratively (generated corpora
// have deep chains). Components come out in reverse topological order —
// each after every component it reaches — with members sorted. Roots are
// tried in nodes order and successors in the order succs returns them,
// which makes the component order deterministic. succs is called once per
// node.
func Tarjan(nodes []string, succs func(string) []string) [][]string {
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
