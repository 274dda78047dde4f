package summary

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/ir"
	"repro/internal/sym"
)

// The wire format deliberately mirrors the paper's entry triple so saved
// databases are human-readable. Expressions serialize structurally rather
// than as strings, avoiding a re-parser.

type exprDTO struct {
	Kind string   `json:"kind"`
	Int  int64    `json:"int,omitempty"`
	Name string   `json:"name,omitempty"`
	Base *exprDTO `json:"base,omitempty"`
	Pred string   `json:"pred,omitempty"`
	A    *exprDTO `json:"a,omitempty"`
	B    *exprDTO `json:"b,omitempty"`
}

type changeDTO struct {
	RC    *exprDTO `json:"rc"`
	Delta int      `json:"delta"`
}

type entryDTO struct {
	Cons    []*exprDTO  `json:"cons"`
	Changes []changeDTO `json:"changes,omitempty"`
	Ret     *exprDTO    `json:"return,omitempty"`
}

type summaryDTO struct {
	Fn         string      `json:"fn"`
	Params     []string    `json:"params,omitempty"`
	Entries    []*entryDTO `json:"entries"`
	HasDefault bool        `json:"has_default,omitempty"`
	Predefined bool        `json:"predefined,omitempty"`
}

type dbDTO struct {
	Summaries []*summaryDTO `json:"summaries"`
}

var kindNames = map[sym.Kind]string{
	sym.KConst: "const", sym.KNull: "null", sym.KArg: "arg", sym.KRet: "ret",
	sym.KLocal: "local", sym.KFresh: "fresh", sym.KField: "field", sym.KCond: "cond",
}

var kindByName = func() map[string]sym.Kind {
	m := make(map[string]sym.Kind, len(kindNames))
	for k, v := range kindNames {
		m[v] = k
	}
	return m
}()

var predByName = map[string]ir.Pred{
	"==": ir.EQ, "!=": ir.NE, "<": ir.LT, "<=": ir.LE, ">": ir.GT, ">=": ir.GE,
}

func exprToDTO(e *sym.Expr) *exprDTO {
	if e == nil {
		return nil
	}
	d := &exprDTO{Kind: kindNames[e.Kind]}
	switch e.Kind {
	case sym.KConst:
		d.Int = e.Int
	case sym.KArg, sym.KLocal, sym.KFresh:
		d.Name = e.Name
	case sym.KField:
		d.Name = e.Name
		d.Base = exprToDTO(e.Base)
	case sym.KCond:
		d.Pred = e.Pred.String()
		d.A = exprToDTO(e.A)
		d.B = exprToDTO(e.B)
	}
	return d
}

func exprFromDTO(t *sym.Table, d *exprDTO) (*sym.Expr, error) {
	if d == nil {
		return nil, nil
	}
	kind, ok := kindByName[d.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown expression kind %q", d.Kind)
	}
	switch kind {
	case sym.KConst:
		return t.Const(d.Int), nil
	case sym.KNull:
		return t.Null(), nil
	case sym.KArg:
		return t.Arg(d.Name), nil
	case sym.KRet:
		return t.Ret(), nil
	case sym.KLocal:
		return t.Local(d.Name), nil
	case sym.KFresh:
		return t.Fresh(d.Name), nil
	case sym.KField:
		base, err := exprFromDTO(t, d.Base)
		if err != nil {
			return nil, err
		}
		return t.Field(base, d.Name), nil
	case sym.KCond:
		pred, ok := predByName[d.Pred]
		if !ok {
			return nil, fmt.Errorf("unknown predicate %q", d.Pred)
		}
		a, err := exprFromDTO(t, d.A)
		if err != nil {
			return nil, err
		}
		b, err := exprFromDTO(t, d.B)
		if err != nil {
			return nil, err
		}
		return t.Cond(a, pred, b), nil
	}
	return nil, fmt.Errorf("unhandled kind %q", d.Kind)
}

func entryToDTO(e *Entry) *entryDTO {
	d := &entryDTO{Ret: exprToDTO(e.Ret)}
	for _, c := range e.Cons.Conds() {
		d.Cons = append(d.Cons, exprToDTO(c))
	}
	for _, c := range e.SortedChanges() {
		d.Changes = append(d.Changes, changeDTO{RC: exprToDTO(c.RC), Delta: c.Delta})
	}
	return d
}

func entryFromDTO(t *sym.Table, d *entryDTO) (*Entry, error) {
	ret, err := exprFromDTO(t, d.Ret)
	if err != nil {
		return nil, err
	}
	e := NewEntry(sym.True(), ret)
	for _, cd := range d.Cons {
		c, err := exprFromDTO(t, cd)
		if err != nil {
			return nil, err
		}
		e.Cons = e.Cons.And(t, c)
	}
	for _, cd := range d.Changes {
		rc, err := exprFromDTO(t, cd.RC)
		if err != nil {
			return nil, err
		}
		e.AddChange(rc, cd.Delta)
	}
	return e, nil
}

// MarshalExpr encodes one symbolic expression in the structural wire
// format of DB.Save (nil encodes as JSON null). The persistent summary
// store uses it for report refcount expressions.
func MarshalExpr(e *sym.Expr) ([]byte, error) {
	return json.Marshal(exprToDTO(e))
}

// UnmarshalExpr decodes an expression written by MarshalExpr. The result
// is rebuilt through t's constructors, so it is hash-consed: loading
// restores the pointer-equality invariants of interned expressions.
func UnmarshalExpr(t *sym.Table, data []byte) (*sym.Expr, error) {
	var d *exprDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return exprFromDTO(t, d)
}

// MarshalEntry encodes one summary entry in the DB.Save wire format.
func MarshalEntry(e *Entry) ([]byte, error) {
	return json.Marshal(entryToDTO(e))
}

// UnmarshalEntry decodes an entry written by MarshalEntry, interning
// every expression it contains in t.
func UnmarshalEntry(t *sym.Table, data []byte) (*Entry, error) {
	var d entryDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return entryFromDTO(t, &d)
}

// MarshalSummary encodes one function summary in the DB.Save wire format.
func MarshalSummary(s *Summary) ([]byte, error) {
	return json.Marshal(summaryToDTO(s))
}

// UnmarshalSummary decodes a summary written by MarshalSummary,
// interning every expression it contains in t.
func UnmarshalSummary(t *sym.Table, data []byte) (*Summary, error) {
	var d summaryDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return summaryFromDTO(t, &d)
}

func summaryToDTO(s *Summary) *summaryDTO {
	sd := &summaryDTO{Fn: s.Fn, Params: s.Params, HasDefault: s.HasDefault, Predefined: s.Predefined}
	for _, e := range s.Entries {
		sd.Entries = append(sd.Entries, entryToDTO(e))
	}
	return sd
}

func summaryFromDTO(t *sym.Table, sd *summaryDTO) (*Summary, error) {
	s := New(sd.Fn)
	s.Params = sd.Params
	s.HasDefault = sd.HasDefault
	s.Predefined = sd.Predefined
	for _, ed := range sd.Entries {
		e, err := entryFromDTO(t, ed)
		if err != nil {
			return nil, fmt.Errorf("summary %s: %w", sd.Fn, err)
		}
		s.Entries = append(s.Entries, e)
	}
	return s, nil
}

// Save writes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	dto := dbDTO{}
	for _, name := range db.Names() {
		dto.Summaries = append(dto.Summaries, summaryToDTO(db.Get(name)))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dto)
}

// Load reads a database previously written by Save and merges it into
// db, building its expressions in t.
func (db *DB) Load(t *sym.Table, r io.Reader) error {
	var dto dbDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return fmt.Errorf("decode summary database: %w", err)
	}
	for _, sd := range dto.Summaries {
		s, err := summaryFromDTO(t, sd)
		if err != nil {
			return err
		}
		db.Put(s)
	}
	return nil
}
