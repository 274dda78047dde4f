// Package ast defines the abstract syntax tree for the mini-C language.
//
// The tree deliberately stays close to C's surface syntax; all analysis-
// oriented simplification (short-circuit lowering, abstraction of
// unsupported operators, assert handling) happens in internal/lower.
package ast

import (
	"strings"

	"repro/internal/frontend/token"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------------
// Types

// Type is a parsed type specifier. The analysis is essentially untyped
// (everything is an integer or a pointer treated as an integer), so Type
// only records what is needed for diagnostics and for distinguishing
// pointers from scalars.
type Type struct {
	Name    string // "int", "void", "long", struct tag, ...
	Struct  bool   // declared with the struct keyword
	Pointer int    // number of '*'
}

// IsVoid reports whether the type is exactly void (no pointers).
func (t Type) IsVoid() bool { return t.Name == "void" && t.Pointer == 0 }

// IsPointer reports whether the type has pointer depth at least one.
func (t Type) IsPointer() bool { return t.Pointer > 0 }

// String renders the type in C syntax.
func (t Type) String() string {
	var b strings.Builder
	if t.Struct {
		b.WriteString("struct ")
	}
	b.WriteString(t.Name)
	if t.Pointer > 0 {
		b.WriteByte(' ')
		b.WriteString(strings.Repeat("*", t.Pointer))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Declarations

// File is a parsed translation unit.
type File struct {
	Name    string
	Decls   []Decl
	Structs []*StructDecl
}

// Pos returns the start of the file, making File a Node for Inspect.
func (f *File) Pos() token.Pos { return token.Pos{File: f.Name, Line: 1, Column: 1} }

// Funcs returns the function definitions (bodies present) in the file.
func (f *File) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// Decl is a top-level declaration.
type Decl interface {
	Node
	declNode()
}

// Param is a single function parameter.
type Param struct {
	Type Type
	Name string
	P    token.Pos
}

// Pos returns the parameter position.
func (p *Param) Pos() token.Pos { return p.P }

// FuncDecl is a function definition or (when Body is nil) a prototype /
// extern declaration.
type FuncDecl struct {
	Result Type
	Name   string
	Params []*Param
	Body   *BlockStmt // nil for prototypes
	Extern bool
	Static bool
	P      token.Pos
	// BodyOff is the byte offset of Body's opening brace in the source.
	BodyOff int
}

func (d *FuncDecl) declNode() {}

// Pos returns the declaration position.
func (d *FuncDecl) Pos() token.Pos { return d.P }

// StructDecl is a struct declaration. Field types are recorded but the
// analysis treats fields as uninterpreted symbols.
type StructDecl struct {
	Tag    string
	Fields []*Param
	P      token.Pos
}

func (d *StructDecl) declNode() {}

// Pos returns the declaration position.
func (d *StructDecl) Pos() token.Pos { return d.P }

// VarDecl is a top-level variable declaration; the analysis treats global
// variables as havoc (unknown) values, so only the name is significant.
type VarDecl struct {
	Type Type
	Name string
	Init Expr // may be nil
	P    token.Pos
}

func (d *VarDecl) declNode() {}

// Pos returns the declaration position.
func (d *VarDecl) Pos() token.Pos { return d.P }

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// BlockStmt is a { ... } block.
type BlockStmt struct {
	Stmts []Stmt
	P     token.Pos
}

// DeclStmt is a local variable declaration, possibly with initializer.
type DeclStmt struct {
	Type Type
	Name string
	Init Expr // may be nil
	P    token.Pos
}

// ExprStmt is an expression evaluated for effect (calls, assignments).
type ExprStmt struct {
	X Expr
	P token.Pos
}

// IfStmt is if (Cond) Then [else Else].
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	P    token.Pos
}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	P    token.Pos
}

// DoWhileStmt is do Body while (Cond);.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
	P    token.Pos
}

// ForStmt is for (Init; Cond; Post) Body; any of the three may be nil.
type ForStmt struct {
	Init Stmt // DeclStmt or ExprStmt
	Cond Expr
	Post Expr
	Body Stmt
	P    token.Pos
}

// GotoStmt is goto Label;.
type GotoStmt struct {
	Label string
	P     token.Pos
}

// LabeledStmt is Label: Stmt.
type LabeledStmt struct {
	Label string
	Stmt  Stmt
	P     token.Pos
}

// ReturnStmt is return [X];.
type ReturnStmt struct {
	X Expr // may be nil
	P token.Pos
}

// BreakStmt is break;.
type BreakStmt struct{ P token.Pos }

// ContinueStmt is continue;.
type ContinueStmt struct{ P token.Pos }

// AssertStmt is assert(X); — lowered to an assume on the analyzed path,
// mirroring the paper's treatment of Figure 1 ("the exception path handling
// assertion failure is ignored").
type AssertStmt struct {
	X Expr
	P token.Pos
}

// AsmStmt is asm("...") — an opaque operation; reads through it are
// modeled as random() by the lowering.
type AsmStmt struct {
	Text string
	P    token.Pos
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ P token.Pos }

// SwitchStmt is switch (Tag) { case ...: ... } — lowered to an if chain.
type SwitchStmt struct {
	Tag   Expr
	Cases []*CaseClause
	P     token.Pos
}

// CaseClause is one case (or default, when IsDefault) of a switch.
type CaseClause struct {
	Value     Expr // nil for default
	IsDefault bool
	Body      []Stmt
	P         token.Pos
}

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()      {}
func (*GotoStmt) stmtNode()     {}
func (*LabeledStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*AssertStmt) stmtNode()   {}
func (*AsmStmt) stmtNode()      {}
func (*EmptyStmt) stmtNode()    {}
func (*SwitchStmt) stmtNode()   {}

// Pos implementations.
func (s *BlockStmt) Pos() token.Pos    { return s.P }
func (s *DeclStmt) Pos() token.Pos     { return s.P }
func (s *ExprStmt) Pos() token.Pos     { return s.P }
func (s *IfStmt) Pos() token.Pos       { return s.P }
func (s *WhileStmt) Pos() token.Pos    { return s.P }
func (s *DoWhileStmt) Pos() token.Pos  { return s.P }
func (s *ForStmt) Pos() token.Pos      { return s.P }
func (s *GotoStmt) Pos() token.Pos     { return s.P }
func (s *LabeledStmt) Pos() token.Pos  { return s.P }
func (s *ReturnStmt) Pos() token.Pos   { return s.P }
func (s *BreakStmt) Pos() token.Pos    { return s.P }
func (s *ContinueStmt) Pos() token.Pos { return s.P }
func (s *AssertStmt) Pos() token.Pos   { return s.P }
func (s *AsmStmt) Pos() token.Pos      { return s.P }
func (s *EmptyStmt) Pos() token.Pos    { return s.P }
func (s *SwitchStmt) Pos() token.Pos   { return s.P }
func (s *CaseClause) Pos() token.Pos   { return s.P }

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Ident is a variable or function name use.
type Ident struct {
	Name string
	P    token.Pos
}

// IntLit is an integer literal; Value is the parsed value.
type IntLit struct {
	Value int64
	Text  string
	P     token.Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Value bool
	P     token.Pos
}

// NullLit is NULL.
type NullLit struct{ P token.Pos }

// UnaryExpr is Op X for prefix operators (!, -, ~, *, &).
type UnaryExpr struct {
	Op token.Kind
	X  Expr
	P  token.Pos
}

// BinaryExpr is X Op Y.
type BinaryExpr struct {
	Op   token.Kind
	X, Y Expr
	P    token.Pos
}

// AssignExpr is LHS = RHS (also +=, -= forms, recorded via Op).
type AssignExpr struct {
	Op  token.Kind // ASSIGN, PLUSASSIGN, MINUSASSIGN
	LHS Expr
	RHS Expr
	P   token.Pos
}

// IncDecExpr is X++ / X-- / ++X / --X.
type IncDecExpr struct {
	Op token.Kind // PLUSPLUS or MINUSMINUS
	X  Expr
	P  token.Pos
}

// CallExpr is Fun(Args...).
type CallExpr struct {
	Fun  string
	Args []Expr
	P    token.Pos
}

// FieldExpr is X->Name or X.Name (Arrow records which was written).
type FieldExpr struct {
	X     Expr
	Name  string
	Arrow bool
	P     token.Pos
}

// IndexExpr is X[Index]; the analysis havocs loads through it.
type IndexExpr struct {
	X     Expr
	Index Expr
	P     token.Pos
}

// RandomExpr is the random() builtin of the Figure-3 abstraction: a
// non-deterministic integer (e.g. a device register read).
type RandomExpr struct{ P token.Pos }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*NullLit) exprNode()    {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*AssignExpr) exprNode() {}
func (*IncDecExpr) exprNode() {}
func (*CallExpr) exprNode()   {}
func (*FieldExpr) exprNode()  {}
func (*IndexExpr) exprNode()  {}
func (*RandomExpr) exprNode() {}

// Pos implementations.
func (e *Ident) Pos() token.Pos      { return e.P }
func (e *IntLit) Pos() token.Pos     { return e.P }
func (e *BoolLit) Pos() token.Pos    { return e.P }
func (e *NullLit) Pos() token.Pos    { return e.P }
func (e *UnaryExpr) Pos() token.Pos  { return e.P }
func (e *BinaryExpr) Pos() token.Pos { return e.P }
func (e *AssignExpr) Pos() token.Pos { return e.P }
func (e *IncDecExpr) Pos() token.Pos { return e.P }
func (e *CallExpr) Pos() token.Pos   { return e.P }
func (e *FieldExpr) Pos() token.Pos  { return e.P }
func (e *IndexExpr) Pos() token.Pos  { return e.P }
func (e *RandomExpr) Pos() token.Pos { return e.P }
