package ast

import (
	"fmt"
	"strings"

	"repro/internal/frontend/token"
)

// Print renders a file back to mini-C source. The output is not guaranteed
// to be byte-identical to the input, but re-parsing it yields an
// equivalent tree (the property the printer tests pin down); it is used
// for diagnostics and corpus debugging.
func Print(f *File) string {
	var p printer
	for _, sd := range f.Structs {
		p.structDecl(sd)
	}
	for _, d := range f.Decls {
		p.decl(d)
	}
	return p.b.String()
}

// PrintStmt renders one statement (for tests and error messages).
func PrintStmt(s Stmt) string {
	var p printer
	p.stmt(s)
	return p.b.String()
}

// PrintExpr renders one expression.
func PrintExpr(e Expr) string {
	var p printer
	p.expr(e)
	return p.b.String()
}

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) ws() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

func (p *printer) structDecl(sd *StructDecl) {
	if len(sd.Fields) == 0 {
		fmt.Fprintf(&p.b, "struct %s;\n", sd.Tag)
		return
	}
	fmt.Fprintf(&p.b, "struct %s {\n", sd.Tag)
	for _, f := range sd.Fields {
		fmt.Fprintf(&p.b, "    %s %s;\n", f.Type, f.Name)
	}
	p.b.WriteString("};\n")
}

func (p *printer) decl(d Decl) {
	switch d := d.(type) {
	case *FuncDecl:
		if d.Extern {
			p.b.WriteString("extern ")
		}
		if d.Static {
			p.b.WriteString("static ")
		}
		params := make([]string, len(d.Params))
		for i, prm := range d.Params {
			params[i] = strings.TrimSpace(fmt.Sprintf("%s %s", prm.Type, prm.Name))
		}
		if len(params) == 0 {
			params = []string{"void"}
		}
		fmt.Fprintf(&p.b, "%s %s(%s)", d.Result, d.Name, strings.Join(params, ", "))
		if d.Body == nil {
			p.b.WriteString(";\n")
			return
		}
		p.b.WriteString(" ")
		p.stmt(d.Body)
		p.b.WriteString("\n")
	case *VarDecl:
		fmt.Fprintf(&p.b, "%s %s", d.Type, d.Name)
		if d.Init != nil {
			p.b.WriteString(" = ")
			p.expr(d.Init)
		}
		p.b.WriteString(";\n")
	}
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		p.b.WriteString("{\n")
		p.indent++
		for _, st := range s.Stmts {
			p.ws()
			p.stmt(st)
			p.b.WriteString("\n")
		}
		p.indent--
		p.ws()
		p.b.WriteString("}")
	case *DeclStmt:
		fmt.Fprintf(&p.b, "%s %s", s.Type, s.Name)
		if s.Init != nil {
			p.b.WriteString(" = ")
			p.expr(s.Init)
		}
		p.b.WriteString(";")
	case *ExprStmt:
		p.expr(s.X)
		p.b.WriteString(";")
	case *IfStmt:
		p.b.WriteString("if (")
		p.expr(s.Cond)
		p.b.WriteString(") ")
		p.stmt(s.Then)
		if s.Else != nil {
			p.b.WriteString(" else ")
			p.stmt(s.Else)
		}
	case *WhileStmt:
		p.b.WriteString("while (")
		p.expr(s.Cond)
		p.b.WriteString(") ")
		p.stmt(s.Body)
	case *DoWhileStmt:
		p.b.WriteString("do ")
		p.stmt(s.Body)
		p.b.WriteString(" while (")
		p.expr(s.Cond)
		p.b.WriteString(");")
	case *ForStmt:
		p.b.WriteString("for (")
		if s.Init != nil {
			switch init := s.Init.(type) {
			case *DeclStmt:
				fmt.Fprintf(&p.b, "%s %s", init.Type, init.Name)
				if init.Init != nil {
					p.b.WriteString(" = ")
					p.expr(init.Init)
				}
			case *ExprStmt:
				p.expr(init.X)
			}
		}
		p.b.WriteString("; ")
		if s.Cond != nil {
			p.expr(s.Cond)
		}
		p.b.WriteString("; ")
		if s.Post != nil {
			p.expr(s.Post)
		}
		p.b.WriteString(") ")
		p.stmt(s.Body)
	case *GotoStmt:
		fmt.Fprintf(&p.b, "goto %s;", s.Label)
	case *LabeledStmt:
		fmt.Fprintf(&p.b, "%s:\n", s.Label)
		p.ws()
		p.stmt(s.Stmt)
	case *ReturnStmt:
		p.b.WriteString("return")
		if s.X != nil {
			p.b.WriteString(" ")
			p.expr(s.X)
		}
		p.b.WriteString(";")
	case *BreakStmt:
		p.b.WriteString("break;")
	case *ContinueStmt:
		p.b.WriteString("continue;")
	case *AssertStmt:
		p.b.WriteString("assert(")
		p.expr(s.X)
		p.b.WriteString(");")
	case *AsmStmt:
		fmt.Fprintf(&p.b, "asm(%q);", s.Text)
	case *EmptyStmt:
		p.b.WriteString(";")
	case *SwitchStmt:
		p.b.WriteString("switch (")
		p.expr(s.Tag)
		p.b.WriteString(") {\n")
		p.indent++
		for _, c := range s.Cases {
			p.ws()
			if c.IsDefault {
				p.b.WriteString("default:\n")
			} else {
				p.b.WriteString("case ")
				p.expr(c.Value)
				p.b.WriteString(":\n")
			}
			p.indent++
			for _, st := range c.Body {
				p.ws()
				p.stmt(st)
				p.b.WriteString("\n")
			}
			p.indent--
		}
		p.indent--
		p.ws()
		p.b.WriteString("}")
	}
}

func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *Ident:
		p.b.WriteString(e.Name)
	case *IntLit:
		fmt.Fprintf(&p.b, "%d", e.Value)
	case *BoolLit:
		fmt.Fprintf(&p.b, "%t", e.Value)
	case *NullLit:
		p.b.WriteString("NULL")
	case *UnaryExpr:
		p.b.WriteString(unarySpelling(e.Op))
		p.b.WriteString("(")
		p.expr(e.X)
		p.b.WriteString(")")
	case *BinaryExpr:
		p.b.WriteString("(")
		p.expr(e.X)
		fmt.Fprintf(&p.b, " %s ", e.Op)
		p.expr(e.Y)
		p.b.WriteString(")")
	case *AssignExpr:
		p.expr(e.LHS)
		fmt.Fprintf(&p.b, " %s ", e.Op)
		p.expr(e.RHS)
	case *IncDecExpr:
		p.expr(e.X)
		p.b.WriteString(e.Op.String())
	case *CallExpr:
		p.b.WriteString(e.Fun)
		p.b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a)
		}
		p.b.WriteString(")")
	case *FieldExpr:
		p.expr(e.X)
		if e.Arrow {
			p.b.WriteString("->")
		} else {
			p.b.WriteString(".")
		}
		p.b.WriteString(e.Name)
	case *IndexExpr:
		p.expr(e.X)
		p.b.WriteString("[")
		p.expr(e.Index)
		p.b.WriteString("]")
	case *RandomExpr:
		p.b.WriteString("random()")
	}
}

func unarySpelling(k token.Kind) string {
	switch k {
	case token.NOT:
		return "!"
	case token.MINUS:
		return "-"
	case token.TILDE:
		return "~"
	case token.STAR:
		return "*"
	case token.AMP:
		return "&"
	}
	return k.String()
}
