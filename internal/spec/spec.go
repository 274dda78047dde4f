// Package spec provides predefined function summaries — the refcount API
// specifications RID requires as its only input (§5.1). Specifications are
// written in a small text DSL mirroring the paper's (cons, changes, return)
// entry layout:
//
//	summary pm_runtime_get_sync(dev) {
//	  entry { cons: true; changes: [dev].pm += 1; return: [0]; }
//	}
//	summary PyList_New(len) {
//	  attr newref;
//	  entry { cons: [0] != null; changes: [0].rc += 1; return: [0]; }
//	  entry { cons: [0] == null; changes:; return: null; }
//	}
//	summary PyList_SetItem(list, i, item) {
//	  attr steals(item);
//	  entry { cons: true; changes:; return: [0]; }
//	}
//
// Attributes do not affect RID itself; they carry the reference-escape
// metadata used by the Cpychecker-style baseline (internal/baseline/cpyrule).
package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/ir"
	"repro/internal/summary"
	"repro/internal/sym"
)

// API couples a predefined summary with baseline metadata.
type API struct {
	Summary *summary.Summary
	Params  []string
	Steals  []int // parameter indices whose references are stolen
	NewRef  bool  // returns a new reference (allocation-style API)
}

// Resource declares a paired-resource kind tracked by a spec pack: the
// tracked field names (the f in [x].f delta keys) and the balance
// semantics. The canonical refcount packs declare kind "refcount"; other
// kinds (lock, fd) tag their reports with the kind name.
type Resource struct {
	Kind    string   // resource kind name ("refcount", "lock", "fd", ...)
	Fields  []string // field names whose deltas track this resource
	Balance string   // balance discipline; "zero" = acquire/release must net zero
}

// Specs is a set of predefined APIs plus the resource kinds they track.
type Specs struct {
	APIs      map[string]*API
	Resources map[string]*Resource
}

// NewSpecs returns an empty specification set.
func NewSpecs() *Specs {
	return &Specs{APIs: make(map[string]*API), Resources: make(map[string]*Resource)}
}

// Merge folds other into s (other wins on conflicts).
func (s *Specs) Merge(other *Specs) {
	for k, v := range other.APIs {
		s.APIs[k] = v
	}
	for k, v := range other.Resources {
		if s.Resources == nil {
			s.Resources = make(map[string]*Resource)
		}
		if old, ok := s.Resources[k]; ok {
			s.Resources[k] = unionResource(old, v)
		} else {
			s.Resources[k] = v
		}
	}
}

// unionResource combines two declarations of the same resource kind:
// field sets union (two packs can both track kind "refcount" through
// different fields); b wins on balance.
func unionResource(a, b *Resource) *Resource {
	seen := make(map[string]bool, len(a.Fields)+len(b.Fields))
	out := &Resource{Kind: a.Kind, Balance: b.Balance}
	if out.Balance == "" {
		out.Balance = a.Balance
	}
	for _, f := range append(append([]string(nil), a.Fields...), b.Fields...) {
		if !seen[f] {
			seen[f] = true
			out.Fields = append(out.Fields, f)
		}
	}
	sort.Strings(out.Fields)
	return out
}

// MergeStrict folds other into s, rejecting conflicting redefinitions:
// an API or resource defined in both with a different canonical rendering
// is an error rather than a silent last-wins. Byte-identical
// redefinitions are tolerated (the same pack loaded twice is a no-op).
func (s *Specs) MergeStrict(other *Specs) error {
	for _, k := range other.Names() {
		v := other.APIs[k]
		if old, ok := s.APIs[k]; ok && formatAPI(k, old) != formatAPI(k, v) {
			return fmt.Errorf("conflicting definitions of API %q", k)
		}
		s.APIs[k] = v
	}
	for _, k := range sortedResourceNames(other.Resources) {
		v := other.Resources[k]
		if s.Resources == nil {
			s.Resources = make(map[string]*Resource)
		}
		if old, ok := s.Resources[k]; ok {
			ab, bb := old.Balance, v.Balance
			if ab == "" {
				ab = "zero"
			}
			if bb == "" {
				bb = "zero"
			}
			if ab != bb {
				return fmt.Errorf("conflicting balance disciplines for resource %q (%s vs %s)", k, ab, bb)
			}
			s.Resources[k] = unionResource(old, v)
		} else {
			s.Resources[k] = v
		}
	}
	return nil
}

// FieldKinds maps every declared resource field name to its resource
// kind, e.g. {"pm": "refcount", "held": "lock"}. Resources are visited
// in sorted kind order so a field claimed twice resolves deterministically.
func (s *Specs) FieldKinds() map[string]string {
	if len(s.Resources) == 0 {
		return nil
	}
	out := make(map[string]string, len(s.Resources))
	for _, k := range sortedResourceNames(s.Resources) {
		for _, f := range s.Resources[k].Fields {
			out[f] = k
		}
	}
	return out
}

func sortedResourceNames(m map[string]*Resource) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ApplyTo installs every predefined summary into db.
func (s *Specs) ApplyTo(db *summary.DB) {
	for _, a := range s.APIs {
		db.Put(a.Summary)
	}
}

// Names returns the API names in sorted order.
func (s *Specs) Names() []string {
	out := make([]string, 0, len(s.APIs))
	for k := range s.APIs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MustParse parses src and panics on error; for built-in specifications.
func MustParse(name, src string) *Specs {
	s, err := Parse(name, src)
	if err != nil {
		panic(fmt.Sprintf("builtin spec %s: %v", name, err))
	}
	return s
}

// Parse parses the DSL text; name is used in error messages. The
// summaries' expressions are built in a table of their own, which lives
// as long as the parsed Specs: a run imports an entry into its own table
// the first time it instantiates it.
func Parse(name, src string) (*Specs, error) {
	p := &specParser{name: name, src: src, syms: sym.NewTable()}
	p.next()
	specs := NewSpecs()
	for p.tok != "" {
		switch p.tok {
		case "summary":
			api, fnName, err := p.parseSummary()
			if err != nil {
				return nil, err
			}
			specs.APIs[fnName] = api
		case "resource":
			res, err := p.parseResource()
			if err != nil {
				return nil, err
			}
			specs.Resources[res.Kind] = res
		default:
			return nil, p.errorf("expected 'summary' or 'resource', found %q", p.tok)
		}
	}
	return specs, nil
}

// ---------------------------------------------------------------------------

type specParser struct {
	name string
	src  string
	syms *sym.Table
	off  int
	line int
	tok  string
}

func (p *specParser) errorf(format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", p.name, p.line+1, fmt.Sprintf(format, args...))
}

// next advances to the next token: identifiers, numbers (with optional
// leading '-'), and the punctuation/operators of the DSL.
func (p *specParser) next() {
	src := p.src
	for p.off < len(src) {
		c := src[p.off]
		if c == '\n' {
			p.line++
		}
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			p.off++
			continue
		}
		if c == '#' {
			for p.off < len(src) && src[p.off] != '\n' {
				p.off++
			}
			continue
		}
		break
	}
	if p.off >= len(src) {
		p.tok = ""
		return
	}
	start := p.off
	c := src[p.off]
	switch {
	case c == '_' || unicode.IsLetter(rune(c)):
		for p.off < len(src) && (src[p.off] == '_' || unicode.IsLetter(rune(src[p.off])) || unicode.IsDigit(rune(src[p.off]))) {
			p.off++
		}
	case unicode.IsDigit(rune(c)):
		for p.off < len(src) && unicode.IsDigit(rune(src[p.off])) {
			p.off++
		}
	case c == '-' && p.off+1 < len(src) && unicode.IsDigit(rune(src[p.off+1])):
		p.off++
		for p.off < len(src) && unicode.IsDigit(rune(src[p.off])) {
			p.off++
		}
	default:
		// Multi-char operators first.
		for _, op := range []string{"+=", "-=", "==", "!=", "<=", ">=", "&&"} {
			if strings.HasPrefix(src[p.off:], op) {
				p.off += len(op)
				p.tok = op
				return
			}
		}
		p.off++
	}
	p.tok = src[start:p.off]
}

func (p *specParser) expect(tok string) error {
	if p.tok != tok {
		return p.errorf("expected %q, found %q", tok, p.tok)
	}
	p.next()
	return nil
}

// isIdent reports whether tok is a DSL identifier (function, parameter,
// field, or resource name). Keywords and punctuation are not identifiers;
// requiring this keeps parse∘print a fixpoint under fuzzing.
func isIdent(tok string) bool {
	if tok == "" {
		return false
	}
	for i, r := range tok {
		if r == '_' || unicode.IsLetter(r) || (i > 0 && unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}

// parseResource parses a resource-kind declaration:
//
//	resource lock {
//	  fields: held;
//	  balance: zero;
//	}
func (p *specParser) parseResource() (*Resource, error) {
	p.next() // 'resource'
	if !isIdent(p.tok) {
		return nil, p.errorf("expected resource kind name, found %q", p.tok)
	}
	res := &Resource{Kind: p.tok}
	p.next()
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	for p.tok != "}" && p.tok != "" {
		field := p.tok
		p.next()
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		switch field {
		case "fields":
			for p.tok != ";" && p.tok != "" {
				if !isIdent(p.tok) {
					return nil, p.errorf("expected field name, found %q", p.tok)
				}
				res.Fields = append(res.Fields, p.tok)
				p.next()
				if p.tok == "," {
					p.next()
				}
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		case "balance":
			if !isIdent(p.tok) {
				return nil, p.errorf("expected balance discipline, found %q", p.tok)
			}
			res.Balance = p.tok
			p.next()
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("unknown resource field %q", field)
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return res, nil
}

func (p *specParser) parseSummary() (*API, string, error) {
	p.next() // 'summary'
	fnName := p.tok
	if !isIdent(fnName) {
		return nil, "", p.errorf("expected function name, found %q", fnName)
	}
	p.next()
	if err := p.expect("("); err != nil {
		return nil, "", err
	}
	var params []string
	for p.tok != ")" && p.tok != "" {
		if !isIdent(p.tok) {
			return nil, "", p.errorf("expected parameter name, found %q", p.tok)
		}
		params = append(params, p.tok)
		p.next()
		if p.tok == "," {
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, "", err
	}
	if err := p.expect("{"); err != nil {
		return nil, "", err
	}
	api := &API{Summary: summary.New(fnName), Params: params}
	api.Summary.Predefined = true
	api.Summary.Params = params
	for p.tok != "}" && p.tok != "" {
		switch p.tok {
		case "entry":
			e, err := p.parseEntry(params)
			if err != nil {
				return nil, "", err
			}
			api.Summary.Entries = append(api.Summary.Entries, e)
		case "attr":
			if err := p.parseAttr(api, params); err != nil {
				return nil, "", err
			}
		default:
			return nil, "", p.errorf("expected 'entry' or 'attr', found %q", p.tok)
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, "", err
	}
	if len(api.Summary.Entries) == 0 {
		return nil, "", p.errorf("summary %s has no entries", fnName)
	}
	return api, fnName, nil
}

func (p *specParser) parseAttr(api *API, params []string) error {
	p.next() // 'attr'
	switch p.tok {
	case "newref":
		api.NewRef = true
		p.next()
	case "steals":
		p.next()
		if err := p.expect("("); err != nil {
			return err
		}
		for p.tok != ")" && p.tok != "" {
			idx := -1
			for i, prm := range params {
				if prm == p.tok {
					idx = i
				}
			}
			if idx < 0 {
				return p.errorf("steals: unknown parameter %q", p.tok)
			}
			api.Steals = append(api.Steals, idx)
			p.next()
			if p.tok == "," {
				p.next()
			}
		}
		if err := p.expect(")"); err != nil {
			return err
		}
	default:
		return p.errorf("unknown attribute %q", p.tok)
	}
	return p.expect(";")
}

func (p *specParser) parseEntry(params []string) (*summary.Entry, error) {
	p.next() // 'entry'
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	e := summary.NewEntry(sym.True(), nil)
	for p.tok != "}" && p.tok != "" {
		field := p.tok
		p.next()
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		switch field {
		case "cons":
			if err := p.parseCons(e, params); err != nil {
				return nil, err
			}
		case "changes":
			if err := p.parseChanges(e, params); err != nil {
				return nil, err
			}
		case "return":
			if p.tok != ";" {
				ret, err := p.parseTerm(params)
				if err != nil {
					return nil, err
				}
				e.Ret = ret
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("unknown entry field %q", field)
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *specParser) parseCons(e *summary.Entry, params []string) error {
	if p.tok == "true" {
		p.next()
		return p.expect(";")
	}
	for {
		a, err := p.parseTerm(params)
		if err != nil {
			return err
		}
		pred, ok := map[string]ir.Pred{
			"==": ir.EQ, "!=": ir.NE, "<": ir.LT, "<=": ir.LE, ">": ir.GT, ">=": ir.GE,
		}[p.tok]
		if !ok {
			return p.errorf("expected predicate, found %q", p.tok)
		}
		p.next()
		b, err := p.parseTerm(params)
		if err != nil {
			return err
		}
		e.Cons = e.Cons.And(p.syms, p.syms.Cond(a, pred, b))
		if p.tok == "&&" {
			p.next()
			continue
		}
		break
	}
	return p.expect(";")
}

func (p *specParser) parseChanges(e *summary.Entry, params []string) error {
	for p.tok != ";" && p.tok != "" {
		rc, err := p.parseTerm(params)
		if err != nil {
			return err
		}
		op := p.tok
		if op != "+=" && op != "-=" {
			return p.errorf("expected += or -=, found %q", op)
		}
		p.next()
		n, err := strconv.Atoi(p.tok)
		if err != nil {
			return p.errorf("expected integer delta, found %q", p.tok)
		}
		p.next()
		if op == "-=" {
			n = -n
		}
		e.AddChange(rc, n)
		if p.tok == "," {
			p.next()
		}
	}
	return p.expect(";")
}

// parseTerm parses [name], [0], null, integers, and field chains on
// bracketed terms ([dev].pm, [0].rc).
func (p *specParser) parseTerm(params []string) (*sym.Expr, error) {
	var base *sym.Expr
	switch {
	case p.tok == "[":
		p.next()
		if p.tok == "0" {
			base = p.syms.Ret()
		} else {
			found := false
			for _, prm := range params {
				if prm == p.tok {
					found = true
				}
			}
			if !found {
				return nil, p.errorf("unknown parameter %q in term", p.tok)
			}
			base = p.syms.Arg(p.tok)
		}
		p.next()
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	case p.tok == "null":
		p.next()
		return p.syms.Null(), nil
	case p.tok == "true":
		p.next()
		return p.syms.BoolConst(true), nil
	case p.tok == "false":
		p.next()
		return p.syms.BoolConst(false), nil
	default:
		if n, err := strconv.ParseInt(p.tok, 10, 64); err == nil {
			p.next()
			return p.syms.Const(n), nil
		}
		return nil, p.errorf("expected term, found %q", p.tok)
	}
	for p.tok == "." {
		p.next()
		field := p.tok
		if !isIdent(field) {
			return nil, p.errorf("expected field name after '.', found %q", field)
		}
		base = p.syms.Field(base, field)
		p.next()
	}
	return base, nil
}
