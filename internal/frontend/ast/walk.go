package ast

// Inspect traverses the statement/expression tree rooted at n in depth-
// first order, calling f for every node. If f returns false for a node,
// its children are skipped. Nil children are never visited.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *File:
		for _, d := range n.Decls {
			Inspect(d, f)
		}
	case *FuncDecl:
		if n.Body != nil {
			Inspect(n.Body, f)
		}
	case *VarDecl:
		if n.Init != nil {
			Inspect(n.Init, f)
		}
	case *BlockStmt:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *DeclStmt:
		if n.Init != nil {
			Inspect(n.Init, f)
		}
	case *ExprStmt:
		Inspect(n.X, f)
	case *IfStmt:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		if n.Else != nil {
			Inspect(n.Else, f)
		}
	case *WhileStmt:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *DoWhileStmt:
		Inspect(n.Body, f)
		Inspect(n.Cond, f)
	case *ForStmt:
		if n.Init != nil {
			Inspect(n.Init, f)
		}
		if n.Cond != nil {
			Inspect(n.Cond, f)
		}
		if n.Post != nil {
			Inspect(n.Post, f)
		}
		Inspect(n.Body, f)
	case *LabeledStmt:
		Inspect(n.Stmt, f)
	case *ReturnStmt:
		if n.X != nil {
			Inspect(n.X, f)
		}
	case *AssertStmt:
		Inspect(n.X, f)
	case *SwitchStmt:
		Inspect(n.Tag, f)
		for _, c := range n.Cases {
			if c.Value != nil {
				Inspect(c.Value, f)
			}
			for _, s := range c.Body {
				Inspect(s, f)
			}
		}
	case *UnaryExpr:
		Inspect(n.X, f)
	case *BinaryExpr:
		Inspect(n.X, f)
		Inspect(n.Y, f)
	case *AssignExpr:
		Inspect(n.LHS, f)
		Inspect(n.RHS, f)
	case *IncDecExpr:
		Inspect(n.X, f)
	case *CallExpr:
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *FieldExpr:
		Inspect(n.X, f)
	case *IndexExpr:
		Inspect(n.X, f)
		Inspect(n.Index, f)
	}
}

// CalledFunctions returns the distinct function names called anywhere
// under n, in first-occurrence order.
func CalledFunctions(n Node) []string {
	seen := make(map[string]bool)
	var out []string
	Inspect(n, func(m Node) bool {
		if c, ok := m.(*CallExpr); ok && !seen[c.Fun] {
			seen[c.Fun] = true
			out = append(out, c.Fun)
		}
		return true
	})
	return out
}
