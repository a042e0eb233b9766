package engine

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/pixfile"
	"repro/internal/plan"
)

// Wire format for CF worker fragments.
//
// A worker fragment crosses a process boundary, so the plan subtree a worker
// executes is serialized as a JSON tagged union. Only CF-safe fragments are
// encodable: scans, filters, projections, partial aggregation, top-N, sort
// and limit. Joins are rejected — NewWorkerRequest refuses shared-build splits for
// billing reasons, so a join can never appear in a worker fragment.
//
// The encoded ScanNode is self-contained: it embeds the table's column
// definitions rather than a catalog reference, and the worker receives its
// file partition separately in the WorkerRequest. A worker process therefore
// needs no catalog at all — just the store.

// wireNode is one serialized plan operator. Exactly the fields of its Kind
// are set; everything else stays at the zero value and is omitted.
type wireNode struct {
	Kind string `json:"kind"`

	// kind "scan"
	DB        string           `json:"db,omitempty"`
	TableName string           `json:"table,omitempty"`
	Columns   []catalog.Column `json:"columns,omitempty"`
	Binding   string           `json:"binding,omitempty"`
	Rel       int              `json:"rel,omitempty"`
	Cols      []int            `json:"cols,omitempty"`
	Filter    *wireExpr        `json:"filter,omitempty"`
	ZonePreds []wirePred       `json:"zone_preds,omitempty"`

	// single-input operators
	Child *wireNode `json:"child,omitempty"`

	// kind "filter"
	Cond *wireExpr `json:"cond,omitempty"`

	// kind "project"
	Exprs []*wireExpr `json:"exprs,omitempty"`
	Names []string    `json:"names,omitempty"`

	// kind "agg"
	GroupBy    []*wireExpr `json:"group_by,omitempty"`
	GroupNames []string    `json:"group_names,omitempty"`
	Aggs       []wireAgg   `json:"aggs,omitempty"`

	// kinds "topn" and "sort"
	Keys []plan.SortKey `json:"keys,omitempty"`
	N    int64          `json:"n,omitempty"`

	// kind "limit"
	Limit  int64 `json:"limit,omitempty"`
	Offset int64 `json:"offset,omitempty"`
}

// wirePred is a serialized zone-map predicate.
type wirePred struct {
	Col int           `json:"col"`
	Op  pixfile.CmpOp `json:"op"`
	Val col.Value     `json:"val"`
}

// wireAgg is a serialized plan.AggSpec.
type wireAgg struct {
	Func     plan.AggFunc `json:"func"`
	Arg      *wireExpr    `json:"arg,omitempty"`
	Distinct bool         `json:"distinct,omitempty"`
	Name     string       `json:"name"`
	Ty       col.Type     `json:"ty"`
}

// wireExpr is one serialized bound expression.
type wireExpr struct {
	Kind string `json:"kind"`

	// kind "lit"
	Val *col.Value `json:"val,omitempty"`

	// kind "col"
	Rel      int      `json:"rel,omitempty"`
	Idx      int      `json:"idx,omitempty"`
	Ordinal  int      `json:"ordinal,omitempty"`
	Name     string   `json:"name,omitempty"` // also kind "func"
	Ty       col.Type `json:"ty,omitempty"`
	Nullable bool     `json:"nullable,omitempty"`

	// kinds "unary", "binary"
	Op string    `json:"op,omitempty"`
	X  *wireExpr `json:"x,omitempty"` // also "isnull", "in", "cast"
	L  *wireExpr `json:"l,omitempty"`
	R  *wireExpr `json:"r,omitempty"`

	// kinds "isnull", "in"
	Not  bool        `json:"not,omitempty"`
	List []col.Value `json:"list,omitempty"`

	// kind "func"
	Args []*wireExpr `json:"args,omitempty"`

	// kind "case"
	Whens []wireWhen `json:"whens,omitempty"`
	Else  *wireExpr  `json:"else,omitempty"`

	// kind "cast"
	To col.Type `json:"to,omitempty"`
}

// wireWhen is one serialized CASE arm.
type wireWhen struct {
	Cond   *wireExpr `json:"cond"`
	Result *wireExpr `json:"result"`
}

// encodeNode serializes a worker-fragment plan subtree.
func encodeNode(n plan.Node) (*wireNode, error) {
	switch x := n.(type) {
	case *plan.ScanNode:
		w := &wireNode{
			Kind:      "scan",
			DB:        x.DB,
			TableName: x.Table.Name,
			Columns:   append([]catalog.Column(nil), x.Table.Columns...),
			Binding:   x.Binding,
			Rel:       x.Rel,
			Cols:      append([]int(nil), x.Cols...),
		}
		if x.Filter != nil {
			f, err := encodeExpr(x.Filter)
			if err != nil {
				return nil, err
			}
			w.Filter = f
		}
		for _, zp := range x.ZonePreds {
			w.ZonePreds = append(w.ZonePreds, wirePred{Col: zp.Col, Op: zp.Op, Val: zp.Val})
		}
		return w, nil
	case *plan.FilterNode:
		child, err := encodeNode(x.Child)
		if err != nil {
			return nil, err
		}
		cond, err := encodeExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		return &wireNode{Kind: "filter", Child: child, Cond: cond}, nil
	case *plan.ProjectNode:
		child, err := encodeNode(x.Child)
		if err != nil {
			return nil, err
		}
		w := &wireNode{Kind: "project", Child: child, Names: append([]string(nil), x.Names...)}
		for _, e := range x.Exprs {
			we, err := encodeExpr(e)
			if err != nil {
				return nil, err
			}
			w.Exprs = append(w.Exprs, we)
		}
		return w, nil
	case *plan.AggNode:
		child, err := encodeNode(x.Child)
		if err != nil {
			return nil, err
		}
		w := &wireNode{Kind: "agg", Child: child, GroupNames: append([]string(nil), x.GroupNames...)}
		for _, g := range x.GroupBy {
			wg, err := encodeExpr(g)
			if err != nil {
				return nil, err
			}
			w.GroupBy = append(w.GroupBy, wg)
		}
		for _, sp := range x.Aggs {
			wa := wireAgg{Func: sp.Func, Distinct: sp.Distinct, Name: sp.Name, Ty: sp.Ty}
			if sp.Arg != nil {
				arg, err := encodeExpr(sp.Arg)
				if err != nil {
					return nil, err
				}
				wa.Arg = arg
			}
			w.Aggs = append(w.Aggs, wa)
		}
		return w, nil
	case *plan.TopNNode:
		child, err := encodeNode(x.Child)
		if err != nil {
			return nil, err
		}
		return &wireNode{Kind: "topn", Child: child, Keys: append([]plan.SortKey(nil), x.Keys...), N: x.N}, nil
	case *plan.SortNode:
		child, err := encodeNode(x.Child)
		if err != nil {
			return nil, err
		}
		return &wireNode{Kind: "sort", Child: child, Keys: append([]plan.SortKey(nil), x.Keys...)}, nil
	case *plan.LimitNode:
		child, err := encodeNode(x.Child)
		if err != nil {
			return nil, err
		}
		return &wireNode{Kind: "limit", Child: child, Limit: x.Limit, Offset: x.Offset}, nil
	case *plan.JoinNode:
		return nil, fmt.Errorf("engine: join fragments cannot cross the worker process boundary")
	default:
		return nil, fmt.Errorf("engine: cannot serialize plan node %T", n)
	}
}

// decodeNode rebuilds the plan subtree. The returned tree is fully owned by
// the caller (no sharing with any other plan).
func decodeNode(w *wireNode) (plan.Node, error) {
	if w == nil {
		return nil, fmt.Errorf("engine: nil wire node")
	}
	decodeChild := func() (plan.Node, error) {
		if w.Child == nil {
			return nil, fmt.Errorf("engine: wire node %q missing child", w.Kind)
		}
		return decodeNode(w.Child)
	}
	switch w.Kind {
	case "scan":
		t := &catalog.Table{Name: w.TableName, Columns: append([]catalog.Column(nil), w.Columns...)}
		s := &plan.ScanNode{
			DB:      w.DB,
			Table:   t,
			Binding: w.Binding,
			Rel:     w.Rel,
			Cols:    append([]int(nil), w.Cols...),
		}
		for _, c := range s.Cols {
			if c < 0 || c >= len(t.Columns) {
				return nil, fmt.Errorf("engine: scan ordinal %d out of range for table %s", c, t.Name)
			}
		}
		if w.Filter != nil {
			f, err := decodeExpr(w.Filter)
			if err != nil {
				return nil, err
			}
			s.Filter = f
		}
		for _, zp := range w.ZonePreds {
			s.ZonePreds = append(s.ZonePreds, pixfile.ColPredicate{Col: zp.Col, Op: zp.Op, Val: zp.Val})
		}
		return s, nil
	case "filter":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		cond, err := decodeExpr(w.Cond)
		if err != nil {
			return nil, err
		}
		return &plan.FilterNode{Child: child, Cond: cond}, nil
	case "project":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		p := &plan.ProjectNode{Child: child, Names: append([]string(nil), w.Names...)}
		for _, we := range w.Exprs {
			e, err := decodeExpr(we)
			if err != nil {
				return nil, err
			}
			p.Exprs = append(p.Exprs, e)
		}
		if len(p.Exprs) != len(p.Names) {
			return nil, fmt.Errorf("engine: project has %d exprs, %d names", len(p.Exprs), len(p.Names))
		}
		return p, nil
	case "agg":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		a := &plan.AggNode{Child: child, GroupNames: append([]string(nil), w.GroupNames...)}
		for _, wg := range w.GroupBy {
			g, err := decodeExpr(wg)
			if err != nil {
				return nil, err
			}
			a.GroupBy = append(a.GroupBy, g)
		}
		if len(a.GroupBy) != len(a.GroupNames) {
			return nil, fmt.Errorf("engine: agg has %d group exprs, %d names", len(a.GroupBy), len(a.GroupNames))
		}
		for _, wa := range w.Aggs {
			sp := plan.AggSpec{Func: wa.Func, Distinct: wa.Distinct, Name: wa.Name, Ty: wa.Ty}
			if wa.Arg != nil {
				arg, err := decodeExpr(wa.Arg)
				if err != nil {
					return nil, err
				}
				sp.Arg = arg
			}
			a.Aggs = append(a.Aggs, sp)
		}
		return a, nil
	case "topn":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		return &plan.TopNNode{Child: child, Keys: append([]plan.SortKey(nil), w.Keys...), N: w.N}, nil
	case "sort":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		return &plan.SortNode{Child: child, Keys: append([]plan.SortKey(nil), w.Keys...)}, nil
	case "limit":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		return &plan.LimitNode{Child: child, Limit: w.Limit, Offset: w.Offset}, nil
	default:
		return nil, fmt.Errorf("engine: unknown wire node kind %q", w.Kind)
	}
}

// encodeExpr serializes a bound expression.
func encodeExpr(e plan.BoundExpr) (*wireExpr, error) {
	switch x := e.(type) {
	case *plan.BLit:
		v := x.Val
		return &wireExpr{Kind: "lit", Val: &v}, nil
	case *plan.BCol:
		return &wireExpr{
			Kind: "col", Rel: x.Rel, Idx: x.Idx, Ordinal: x.Ordinal,
			Name: x.Name, Ty: x.Ty, Nullable: x.Nullable,
		}, nil
	case *plan.BUnary:
		sub, err := encodeExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &wireExpr{Kind: "unary", Op: x.Op, X: sub, Ty: x.Ty}, nil
	case *plan.BBinary:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &wireExpr{Kind: "binary", Op: x.Op, L: l, R: r, Ty: x.Ty}, nil
	case *plan.BIsNull:
		sub, err := encodeExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &wireExpr{Kind: "isnull", X: sub, Not: x.Not}, nil
	case *plan.BIn:
		sub, err := encodeExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &wireExpr{Kind: "in", X: sub, List: append([]col.Value(nil), x.List...), Not: x.Not}, nil
	case *plan.BFunc:
		w := &wireExpr{Kind: "func", Name: x.Name, Ty: x.Ty}
		for _, a := range x.Args {
			wa, err := encodeExpr(a)
			if err != nil {
				return nil, err
			}
			w.Args = append(w.Args, wa)
		}
		return w, nil
	case *plan.BCase:
		w := &wireExpr{Kind: "case", Ty: x.Ty}
		for _, arm := range x.Whens {
			cond, err := encodeExpr(arm.Cond)
			if err != nil {
				return nil, err
			}
			res, err := encodeExpr(arm.Result)
			if err != nil {
				return nil, err
			}
			w.Whens = append(w.Whens, wireWhen{Cond: cond, Result: res})
		}
		if x.Else != nil {
			els, err := encodeExpr(x.Else)
			if err != nil {
				return nil, err
			}
			w.Else = els
		}
		return w, nil
	case *plan.BCast:
		sub, err := encodeExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &wireExpr{Kind: "cast", X: sub, To: x.To}, nil
	default:
		return nil, fmt.Errorf("engine: cannot serialize expression %T", e)
	}
}

// decodeExpr rebuilds a bound expression.
func decodeExpr(w *wireExpr) (plan.BoundExpr, error) {
	if w == nil {
		return nil, fmt.Errorf("engine: nil wire expression")
	}
	switch w.Kind {
	case "lit":
		if w.Val == nil {
			return nil, fmt.Errorf("engine: literal without a value")
		}
		return &plan.BLit{Val: *w.Val}, nil
	case "col":
		return &plan.BCol{
			Rel: w.Rel, Idx: w.Idx, Ordinal: w.Ordinal,
			Name: w.Name, Ty: w.Ty, Nullable: w.Nullable,
		}, nil
	case "unary":
		sub, err := decodeExpr(w.X)
		if err != nil {
			return nil, err
		}
		return &plan.BUnary{Op: w.Op, X: sub, Ty: w.Ty}, nil
	case "binary":
		l, err := decodeExpr(w.L)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(w.R)
		if err != nil {
			return nil, err
		}
		return &plan.BBinary{Op: w.Op, L: l, R: r, Ty: w.Ty}, nil
	case "isnull":
		sub, err := decodeExpr(w.X)
		if err != nil {
			return nil, err
		}
		return &plan.BIsNull{X: sub, Not: w.Not}, nil
	case "in":
		sub, err := decodeExpr(w.X)
		if err != nil {
			return nil, err
		}
		return &plan.BIn{X: sub, List: append([]col.Value(nil), w.List...), Not: w.Not}, nil
	case "func":
		f := &plan.BFunc{Name: w.Name, Ty: w.Ty}
		for _, wa := range w.Args {
			a, err := decodeExpr(wa)
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
		}
		return f, nil
	case "case":
		c := &plan.BCase{Ty: w.Ty}
		for _, arm := range w.Whens {
			cond, err := decodeExpr(arm.Cond)
			if err != nil {
				return nil, err
			}
			res, err := decodeExpr(arm.Result)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, plan.BWhen{Cond: cond, Result: res})
		}
		if w.Else != nil {
			els, err := decodeExpr(w.Else)
			if err != nil {
				return nil, err
			}
			c.Else = els
		}
		return c, nil
	case "cast":
		sub, err := decodeExpr(w.X)
		if err != nil {
			return nil, err
		}
		return &plan.BCast{X: sub, To: w.To}, nil
	default:
		return nil, fmt.Errorf("engine: unknown wire expression kind %q", w.Kind)
	}
}
