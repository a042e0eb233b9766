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
// executes is serialized as a JSON tagged union. It carries exactly what a
// worker plan holds: a partial aggregate, a top-N or a scan over a
// left-deep join chain, so the kinds are scans, filters, projections,
// joins, aggregation and top-N.
//
// The encoded ScanNode is self-contained: it embeds the table's column
// definitions rather than a catalog reference. A join's build-side scan
// also carries its table's files, since every task reads its builds
// itself; the probe, the fragment's first scan, gets its file partition
// separately in the WorkerRequest. A worker process therefore needs no
// catalog at all — just the store.

// wireNode is one serialized plan operator. Exactly the fields of its Kind
// are set; everything else stays at the zero value and is omitted.
type wireNode struct {
	Kind string `json:"kind"`

	// kind "scan"
	DB        string             `json:"db,omitempty"`
	TableName string             `json:"table,omitempty"`
	Columns   []catalog.Column   `json:"columns,omitempty"`
	Binding   string             `json:"binding,omitempty"`
	Rel       int                `json:"rel,omitempty"`
	Cols      []int              `json:"cols,omitempty"`
	Filter    *wireExpr          `json:"filter,omitempty"`
	ZonePreds []wirePred         `json:"zone_preds,omitempty"`
	Files     []catalog.FileMeta `json:"files,omitempty"` // build sides only

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

	// kind "topn"
	Keys []plan.SortKey `json:"keys,omitempty"`
	N    int64          `json:"n,omitempty"`

	// kind "join"
	JoinKind  plan.JoinKind `json:"join_kind,omitempty"`
	Left      *wireNode     `json:"left,omitempty"`
	Right     *wireNode     `json:"right,omitempty"`
	LeftKeys  []*wireExpr   `json:"left_keys,omitempty"`
	RightKeys []*wireExpr   `json:"right_keys,omitempty"`
	Residual  *wireExpr     `json:"residual,omitempty"`
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

// encodeNode serializes a worker-fragment plan subtree. build marks a
// join's build side, whose scans carry their table's files.
func encodeNode(n plan.Node, build bool) (*wireNode, error) {
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
		if build {
			w.Files = append([]catalog.FileMeta(nil), x.Table.Files...)
		}
		var err error
		if w.Filter, err = encodeExpr(x.Filter); err != nil {
			return nil, err
		}
		for _, zp := range x.ZonePreds {
			w.ZonePreds = append(w.ZonePreds, wirePred{Col: zp.Col, Op: zp.Op, Val: zp.Val})
		}
		return w, nil
	case *plan.FilterNode:
		child, err := encodeNode(x.Child, build)
		if err != nil {
			return nil, err
		}
		cond, err := encodeExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		return &wireNode{Kind: "filter", Child: child, Cond: cond}, nil
	case *plan.ProjectNode:
		child, err := encodeNode(x.Child, build)
		if err != nil {
			return nil, err
		}
		exprs, err := encodeExprs(x.Exprs)
		if err != nil {
			return nil, err
		}
		return &wireNode{Kind: "project", Child: child, Exprs: exprs, Names: append([]string(nil), x.Names...)}, nil
	case *plan.AggNode:
		child, err := encodeNode(x.Child, build)
		if err != nil {
			return nil, err
		}
		groupBy, err := encodeExprs(x.GroupBy)
		if err != nil {
			return nil, err
		}
		w := &wireNode{Kind: "agg", Child: child, GroupBy: groupBy, GroupNames: append([]string(nil), x.GroupNames...)}
		for _, sp := range x.Aggs {
			arg, err := encodeExpr(sp.Arg)
			if err != nil {
				return nil, err
			}
			w.Aggs = append(w.Aggs, wireAgg{Func: sp.Func, Arg: arg, Distinct: sp.Distinct, Name: sp.Name, Ty: sp.Ty})
		}
		return w, nil
	case *plan.TopNNode:
		child, err := encodeNode(x.Child, build)
		if err != nil {
			return nil, err
		}
		return &wireNode{Kind: "topn", Child: child, Keys: append([]plan.SortKey(nil), x.Keys...), N: x.N}, nil
	case *plan.JoinNode:
		w := &wireNode{Kind: "join", JoinKind: x.Kind}
		var err error
		if w.Left, err = encodeNode(x.Left, build); err != nil {
			return nil, err
		}
		if w.Right, err = encodeNode(x.Right, true); err != nil {
			return nil, err
		}
		if w.LeftKeys, err = encodeExprs(x.LeftKeys); err != nil {
			return nil, err
		}
		if w.RightKeys, err = encodeExprs(x.RightKeys); err != nil {
			return nil, err
		}
		if w.Residual, err = encodeExpr(x.Residual); err != nil {
			return nil, err
		}
		return w, nil
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
		t := &catalog.Table{Name: w.TableName, Columns: append([]catalog.Column(nil), w.Columns...), Files: append([]catalog.FileMeta(nil), w.Files...)}
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
		var err error
		if s.Filter, err = decodeOptExpr(w.Filter); err != nil {
			return nil, err
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
		exprs, err := decodeExprs(w.Exprs)
		if err != nil {
			return nil, err
		}
		if len(exprs) != len(w.Names) {
			return nil, fmt.Errorf("engine: project has %d exprs, %d names", len(exprs), len(w.Names))
		}
		return &plan.ProjectNode{Child: child, Exprs: exprs, Names: append([]string(nil), w.Names...)}, nil
	case "agg":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		groupBy, err := decodeExprs(w.GroupBy)
		if err != nil {
			return nil, err
		}
		if len(groupBy) != len(w.GroupNames) {
			return nil, fmt.Errorf("engine: agg has %d group exprs, %d names", len(groupBy), len(w.GroupNames))
		}
		a := &plan.AggNode{Child: child, GroupBy: groupBy, GroupNames: append([]string(nil), w.GroupNames...)}
		for _, wa := range w.Aggs {
			arg, err := decodeOptExpr(wa.Arg)
			if err != nil {
				return nil, err
			}
			a.Aggs = append(a.Aggs, plan.AggSpec{Func: wa.Func, Arg: arg, Distinct: wa.Distinct, Name: wa.Name, Ty: wa.Ty})
		}
		return a, nil
	case "topn":
		child, err := decodeChild()
		if err != nil {
			return nil, err
		}
		return &plan.TopNNode{Child: child, Keys: append([]plan.SortKey(nil), w.Keys...), N: w.N}, nil
	case "join":
		j := &plan.JoinNode{Kind: w.JoinKind}
		var err error
		if j.Left, err = decodeNode(w.Left); err != nil {
			return nil, err
		}
		if j.Right, err = decodeNode(w.Right); err != nil {
			return nil, err
		}
		if j.LeftKeys, err = decodeExprs(w.LeftKeys); err != nil {
			return nil, err
		}
		if j.RightKeys, err = decodeExprs(w.RightKeys); err != nil {
			return nil, err
		}
		if len(j.LeftKeys) != len(j.RightKeys) {
			return nil, fmt.Errorf("engine: join has %d left keys, %d right keys", len(j.LeftKeys), len(j.RightKeys))
		}
		if j.Residual, err = decodeOptExpr(w.Residual); err != nil {
			return nil, err
		}
		return j, nil
	default:
		return nil, fmt.Errorf("engine: unknown wire node kind %q", w.Kind)
	}
}

// encodeExprs serializes a list of bound expressions.
func encodeExprs(es []plan.BoundExpr) ([]*wireExpr, error) {
	var out []*wireExpr
	for _, e := range es {
		w, err := encodeExpr(e)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// decodeExprs rebuilds a list of bound expressions.
func decodeExprs(ws []*wireExpr) ([]plan.BoundExpr, error) {
	var out []plan.BoundExpr
	for _, w := range ws {
		e, err := decodeExpr(w)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// encodeExpr serializes a bound expression; an absent one stays nil.
func encodeExpr(e plan.BoundExpr) (*wireExpr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
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
		args, err := encodeExprs(x.Args)
		if err != nil {
			return nil, err
		}
		return &wireExpr{Kind: "func", Name: x.Name, Ty: x.Ty, Args: args}, nil
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
		var err error
		if w.Else, err = encodeExpr(x.Else); err != nil {
			return nil, err
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

// decodeOptExpr rebuilds an optional bound expression: nil stays nil.
func decodeOptExpr(w *wireExpr) (plan.BoundExpr, error) {
	if w == nil {
		return nil, nil
	}
	return decodeExpr(w)
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
		args, err := decodeExprs(w.Args)
		if err != nil {
			return nil, err
		}
		return &plan.BFunc{Name: w.Name, Ty: w.Ty, Args: args}, nil
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
		var err error
		if c.Else, err = decodeOptExpr(w.Else); err != nil {
			return nil, err
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
