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

// Graph is the call graph over defined functions, built from each
// function's Calls, so no body is lowered. Calls to undefined functions
// (externs, predefined APIs) appear in All but not as nodes.
type Graph struct {
	Prog  *ir.Program
	Nodes []string            // defined functions, in definition order
	All   map[string][]string // callees, defined or not

	index  map[string]int // function → its position in Nodes
	sccOf  []int          // position in Nodes → SCC id
	sccs   [][]string     // SCC id → members (deterministic order)
	sccDAG [][]int        // SCC id → successor SCC ids
}

// Build constructs the call graph for prog.
func Build(prog *ir.Program) *Graph {
	n := len(prog.Order)
	g := &Graph{
		Prog:  prog,
		Nodes: append([]string(nil), prog.Order...),
		All:   make(map[string][]string, n),
		index: make(map[string]int, n),
	}
	for i, name := range g.Nodes {
		g.index[name] = i
	}
	// Each node's successors are carved from one array, sized by a
	// counting pass over the defined callees.
	edges := 0
	for _, name := range g.Nodes {
		callees := prog.Funcs[name].Calls
		g.All[name] = callees
		for _, c := range callees {
			if _, defined := g.index[c]; defined {
				edges++
			}
		}
	}
	succs := make([][]int, n)
	flat := make([]int, 0, edges)
	for i, name := range g.Nodes {
		start := len(flat)
		for _, c := range g.All[name] {
			if j, defined := g.index[c]; defined {
				flat = append(flat, j)
			}
		}
		succs[i] = flat[start:len(flat):len(flat)]
	}
	g.condense(succs)
	return g
}

// SCCs returns the strongly connected components in reverse topological
// order: every callee SCC appears before any of its callers. This is the
// summarization order of §4.2.
func (g *Graph) SCCs() [][]string { return g.sccs }

// SCCOf returns the SCC index of fn (indices follow SCCs() order).
func (g *Graph) SCCOf(fn string) int { return g.sccOf[g.index[fn]] }

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
// condensation DAG from the node-index adjacency succs.
func (g *Graph) condense(succs [][]int) {
	comps := Tarjan(succs)
	g.sccOf = make([]int, len(succs))
	g.sccs = make([][]string, len(comps))
	names := make([]string, 0, len(succs)) // every SCC's members, carved below
	for i, comp := range comps {
		for _, v := range comp {
			names = append(names, g.Nodes[v])
			g.sccOf[v] = i
		}
		members := names[len(names)-len(comp):]
		sort.Strings(members) // deterministic member order
		g.sccs[i] = members[:len(comp):len(comp)]
	}
	// Tarjan emits SCCs in reverse topological order already. Every SCC's
	// successor list is carved from one array: a counting pass sizes it,
	// and a second pass fills it. In pass p, seen[j] == p*len(comps)+i+1
	// marks SCC j as already listed for SCC i. An SCC with no successors
	// keeps a nil list.
	g.sccDAG = make([][]int, len(comps))
	seen := make([]int, len(comps))
	mark := func(pass, i int, add func(int)) {
		m := pass*len(comps) + i + 1
		seen[i] = m
		for _, v := range comps[i] {
			for _, w := range succs[v] {
				if cs := g.sccOf[w]; seen[cs] != m {
					seen[cs] = m
					add(cs)
				}
			}
		}
	}
	edges := 0
	for i := range comps {
		mark(0, i, func(int) { edges++ })
	}
	flat := make([]int, 0, edges)
	for i := range comps {
		start := len(flat)
		mark(1, i, func(cs int) { flat = append(flat, cs) })
		if len(flat) > start {
			g.sccDAG[i] = flat[start:len(flat):len(flat)]
			sort.Ints(g.sccDAG[i])
		}
	}
}

// Tarjan computes the strongly connected components of the graph over
// nodes 0..len(succs)-1 whose edges run from node v to each of succs[v],
// iteratively (generated corpora have deep chains). Components come out
// in reverse topological order — each after every component it reaches —
// with members in increasing order. Roots are tried in index order and
// successors in the order succs lists them, which makes the component
// order deterministic.
func Tarjan(succs [][]int) [][]int {
	n := len(succs)
	index := make([]int, n) // DFS number plus one; 0 = unvisited
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	out := make([][]int, 0, n)
	members := make([]int, 0, n) // every component's members, carved below
	next := 0

	type frame struct{ v, ei int }
	var frames []frame
	push := func(v int) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v})
	}
	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if ss := succs[f.v]; f.ei < len(ss) {
				w := ss[f.ei]
				f.ei++
				if index[w] == 0 {
					push(w)
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Pop frame; maybe emit a component.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				members = append(members, stack[k:]...)
				comp := members[len(members)-(len(stack)-k) : len(members) : len(members)]
				for _, w := range comp {
					onStack[w] = false
				}
				stack = stack[:k]
				sort.Ints(comp)
				out = append(out, comp)
			}
		}
	}
	return out
}
