// Package plan turns parsed SQL into typed, optimized operator trees.
//
// The binder resolves names against the catalog and produces bound
// expressions whose column references carry (relation, column) coordinates;
// the optimizer pushes filters and projections into scans, extracts
// zone-map predicates, and orders joins; a final pass flattens coordinates
// into ordinals against each operator's input layout so the executor never
// looks names up at runtime.
package plan

import (
	"encoding/gob"
	"fmt"
	"sort"
	"strings"

	"repro/internal/col"
)

// BoundExpr is a typed expression over an operator's input batch. Every
// expression type registers with encoding/gob beside its definition, as
// every Node does.
type BoundExpr interface {
	Type() col.Type
	String() string
}

// BLit is a constant.
type BLit struct {
	Val col.Value
}

func init() { gob.RegisterName("lit", (*BLit)(nil)) }

// Type implements BoundExpr.
func (b *BLit) Type() col.Type { return b.Val.Type }

func (b *BLit) String() string {
	if b.Val.Type == col.STRING && !b.Val.Null {
		return "'" + strings.ReplaceAll(b.Val.S, "'", "''") + "'"
	}
	return b.Val.String()
}

// BCol is a column reference. Rel/Idx are the binder's coordinates
// (relation index in the FROM list, position in that relation's pruned
// output); Ordinal is the flat position in the evaluating operator's input
// schema, assigned by the finalize pass. Rel == DerivedRel marks columns of
// derived schemas (aggregate output), whose Ordinal is set at bind time.
type BCol struct {
	Rel      int
	Idx      int
	Ordinal  int
	Name     string
	Ty       col.Type
	Nullable bool
}

func init() { gob.RegisterName("col", (*BCol)(nil)) }

// DerivedRel marks references into a derived (non-base-table) schema.
const DerivedRel = -1

// Type implements BoundExpr.
func (b *BCol) Type() col.Type { return b.Ty }

func (b *BCol) String() string { return b.Name }

// BUnary is negation or NOT.
type BUnary struct {
	Op string // "-" or "NOT"
	X  BoundExpr
	Ty col.Type
}

func init() { gob.RegisterName("unary", (*BUnary)(nil)) }

// Type implements BoundExpr.
func (b *BUnary) Type() col.Type { return b.Ty }

func (b *BUnary) String() string {
	if b.Op == "NOT" {
		return "NOT (" + b.X.String() + ")"
	}
	return "-(" + b.X.String() + ")"
}

// BBinary is a binary operator. Op: + - * / % = <> < <= > >= AND OR LIKE.
type BBinary struct {
	Op   string
	L, R BoundExpr
	Ty   col.Type
}

func init() { gob.RegisterName("binary", (*BBinary)(nil)) }

// Type implements BoundExpr.
func (b *BBinary) Type() col.Type { return b.Ty }

func (b *BBinary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// BIsNull is x IS [NOT] NULL.
type BIsNull struct {
	X   BoundExpr
	Not bool
}

func init() { gob.RegisterName("isnull", (*BIsNull)(nil)) }

// Type implements BoundExpr.
func (b *BIsNull) Type() col.Type { return col.BOOL }

func (b *BIsNull) String() string {
	if b.Not {
		return "(" + b.X.String() + " IS NOT NULL)"
	}
	return "(" + b.X.String() + " IS NULL)"
}

// BIn is x [NOT] IN (literal list).
type BIn struct {
	X    BoundExpr
	List []col.Value
	Not  bool
}

func init() { gob.RegisterName("in", (*BIn)(nil)) }

// Type implements BoundExpr.
func (b *BIn) Type() col.Type { return col.BOOL }

func (b *BIn) String() string {
	var sb strings.Builder
	sb.WriteString("(" + b.X.String())
	if b.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for i, v := range b.List {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteString("))")
	return sb.String()
}

// BFunc is a scalar function application.
type BFunc struct {
	Name string
	Args []BoundExpr
	Ty   col.Type
}

func init() { gob.RegisterName("func", (*BFunc)(nil)) }

// Type implements BoundExpr.
func (b *BFunc) Type() col.Type { return b.Ty }

func (b *BFunc) String() string {
	args := make([]string, len(b.Args))
	for i, a := range b.Args {
		args[i] = a.String()
	}
	return b.Name + "(" + strings.Join(args, ", ") + ")"
}

// BCase is a searched CASE.
type BCase struct {
	Whens []BWhen
	Else  BoundExpr // nil means NULL
	Ty    col.Type
}

func init() { gob.RegisterName("case", (*BCase)(nil)) }

// BWhen is one CASE arm.
type BWhen struct {
	Cond, Result BoundExpr
}

// Type implements BoundExpr.
func (b *BCase) Type() col.Type { return b.Ty }

func (b *BCase) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range b.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if b.Else != nil {
		sb.WriteString(" ELSE " + b.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// BCast converts between types.
type BCast struct {
	X  BoundExpr
	To col.Type
}

func init() { gob.RegisterName("cast", (*BCast)(nil)) }

// Type implements BoundExpr.
func (b *BCast) Type() col.Type { return b.To }

func (b *BCast) String() string {
	return "CAST(" + b.X.String() + " AS " + b.To.String() + ")"
}

// walk visits every node of a bound expression tree.
func walk(e BoundExpr, fn func(BoundExpr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BUnary:
		walk(x.X, fn)
	case *BBinary:
		walk(x.L, fn)
		walk(x.R, fn)
	case *BIsNull:
		walk(x.X, fn)
	case *BIn:
		walk(x.X, fn)
	case *BFunc:
		for _, a := range x.Args {
			walk(a, fn)
		}
	case *BCase:
		for _, w := range x.Whens {
			walk(w.Cond, fn)
			walk(w.Result, fn)
		}
		walk(x.Else, fn)
	case *BCast:
		walk(x.X, fn)
	}
}

// FilterOrdinals returns the sorted, deduplicated set of input-schema
// ordinals a finalized expression references. The engine uses it on a
// scan's pushed-down filter to know which projected columns must be
// decoded before the filter can run (late materialization): predicate
// columns first, every other column only for row groups that select rows.
func FilterOrdinals(e BoundExpr) []int {
	seen := make(map[int]bool)
	var out []int
	walk(e, func(n BoundExpr) {
		if c, ok := n.(*BCol); ok && !seen[c.Ordinal] {
			seen[c.Ordinal] = true
			out = append(out, c.Ordinal)
		}
	})
	sort.Ints(out)
	return out
}

// relsOf returns the set of base relations an expression references.
func relsOf(e BoundExpr) map[int]bool {
	rels := make(map[int]bool)
	walk(e, func(n BoundExpr) {
		if c, ok := n.(*BCol); ok {
			rels[c.Rel] = true
		}
	})
	return rels
}

// Conjuncts flattens a tree of ANDs into its conjuncts, left to right:
// the order in which AND evaluates them.
func Conjuncts(e BoundExpr) []BoundExpr {
	if b, ok := e.(*BBinary); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []BoundExpr{e}
}

// andAll rebuilds a conjunction (nil for an empty list).
func andAll(conj []BoundExpr) BoundExpr {
	var out BoundExpr
	for _, c := range conj {
		if out == nil {
			out = c
		} else {
			out = &BBinary{Op: "AND", L: out, R: c, Ty: col.BOOL}
		}
	}
	return out
}

// finalize assigns flat ordinals to BCol nodes using layout, which maps a
// relation index to the offset of that relation's block in the operator's
// input schema. DerivedRel columns already carry their ordinal.
func finalize(e BoundExpr, layout map[int]int) error {
	var err error
	walk(e, func(n BoundExpr) {
		if c, ok := n.(*BCol); ok && c.Rel != DerivedRel {
			off, ok := layout[c.Rel]
			if !ok {
				err = fmt.Errorf("plan: internal error: relation %d not in layout for column %s", c.Rel, c.Name)
				return
			}
			c.Ordinal = off + c.Idx
		}
	})
	return err
}

// cloneExpr deep-copies a bound expression so per-operator finalize passes
// never alias each other's BCol nodes.
func cloneExpr(e BoundExpr) BoundExpr {
	switch x := e.(type) {
	case nil:
		return nil
	case *BLit:
		cp := *x
		return &cp
	case *BCol:
		cp := *x
		return &cp
	case *BUnary:
		return &BUnary{Op: x.Op, X: cloneExpr(x.X), Ty: x.Ty}
	case *BBinary:
		return &BBinary{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R), Ty: x.Ty}
	case *BIsNull:
		return &BIsNull{X: cloneExpr(x.X), Not: x.Not}
	case *BIn:
		return &BIn{X: cloneExpr(x.X), List: append([]col.Value(nil), x.List...), Not: x.Not}
	case *BFunc:
		args := make([]BoundExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = cloneExpr(a)
		}
		return &BFunc{Name: x.Name, Args: args, Ty: x.Ty}
	case *BCase:
		whens := make([]BWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = BWhen{Cond: cloneExpr(w.Cond), Result: cloneExpr(w.Result)}
		}
		return &BCase{Whens: whens, Else: cloneExpr(x.Else), Ty: x.Ty}
	case *BCast:
		return &BCast{X: cloneExpr(x.X), To: x.To}
	default:
		panic(fmt.Sprintf("plan: cloneExpr unknown node %T", e))
	}
}
