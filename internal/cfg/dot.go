package cfg

import (
	"fmt"
	"strings"
)

// Dot renders the CFG in Graphviz dot syntax, one node per basic block
// with its instructions, back edges dashed. Useful when triaging a report:
//
//	dot -Tsvg foo.dot > foo.svg
func (g *Graph) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Fn.Name)
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, blk := range g.Fn.Body().Blocks {
		if !g.Reachable(blk.Index) {
			continue
		}
		var label strings.Builder
		fmt.Fprintf(&label, "b%d:\\l", blk.Index)
		for _, in := range blk.Instrs {
			label.WriteString(escapeDot(in.String()))
			label.WriteString("\\l")
		}
		fmt.Fprintf(&b, "  b%d [label=\"%s\"];\n", blk.Index, label.String())
		for _, s := range g.Succ[blk.Index] {
			attr := ""
			if g.IsBackEdge(blk.Index, s) {
				attr = " [style=dashed, label=\"back\"]"
			}
			fmt.Fprintf(&b, "  b%d -> b%d%s;\n", blk.Index, s, attr)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// DotPaths renders the CFG like Dot, overlaying two paths (block index
// sequences, as recorded in IPP evidence): blocks only on path A are
// filled blue, only on path B salmon, on both green; the edges each path
// takes are emphasized and colored to match. The overlay is what `rid
// explain -html` embeds so a report's two paths can be read straight off
// the graph.
func (g *Graph) DotPaths(a, b []int) string {
	onA := make(map[int]bool, len(a))
	for _, i := range a {
		onA[i] = true
	}
	onB := make(map[int]bool, len(b))
	for _, i := range b {
		onB[i] = true
	}
	edgeSet := func(p []int) map[[2]int]bool {
		m := make(map[[2]int]bool, len(p))
		for i := 1; i < len(p); i++ {
			m[[2]int{p[i-1], p[i]}] = true
		}
		return m
	}
	edgeA, edgeB := edgeSet(a), edgeSet(b)

	var out strings.Builder
	fmt.Fprintf(&out, "digraph %q {\n", g.Fn.Name)
	out.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, blk := range g.Fn.Body().Blocks {
		if !g.Reachable(blk.Index) {
			continue
		}
		var label strings.Builder
		fmt.Fprintf(&label, "b%d:\\l", blk.Index)
		for _, in := range blk.Instrs {
			label.WriteString(escapeDot(in.String()))
			label.WriteString("\\l")
		}
		style := ""
		switch {
		case onA[blk.Index] && onB[blk.Index]:
			style = ", style=filled, fillcolor=\"#d5f5d5\""
		case onA[blk.Index]:
			style = ", style=filled, fillcolor=\"#cfe2ff\""
		case onB[blk.Index]:
			style = ", style=filled, fillcolor=\"#ffd9cc\""
		}
		fmt.Fprintf(&out, "  b%d [label=\"%s\"%s];\n", blk.Index, label.String(), style)
		for _, s := range g.Succ[blk.Index] {
			e := [2]int{blk.Index, s}
			var attrs []string
			if g.IsBackEdge(blk.Index, s) {
				attrs = append(attrs, "style=dashed", `label="back"`)
			}
			switch {
			case edgeA[e] && edgeB[e]:
				attrs = append(attrs, `color="#2e8b57"`, "penwidth=2.4")
			case edgeA[e]:
				attrs = append(attrs, `color="#1f6feb"`, "penwidth=2.4")
			case edgeB[e]:
				attrs = append(attrs, `color="#d9480f"`, "penwidth=2.4")
			}
			attr := ""
			if len(attrs) > 0 {
				attr = " [" + strings.Join(attrs, ", ") + "]"
			}
			fmt.Fprintf(&out, "  b%d -> b%d%s;\n", blk.Index, s, attr)
		}
	}
	out.WriteString("}\n")
	return out.String()
}

func escapeDot(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
