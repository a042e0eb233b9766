package oracle

import (
	"fmt"
	"sort"

	"repro/internal/col"
	"repro/internal/plan"
)

// Run executes a bound plan row-at-a-time over in-memory tables: scan
// returns a scan node's input, its Cols already projected from the table,
// and Run applies the pushed-down filter itself. Filters, projections,
// aggregates, sorts, top-N and limits are supported; joins are not.
func Run(n plan.Node, scan func(*plan.ScanNode) (*col.Batch, error)) (*col.Batch, error) {
	ev := NewEvaluator()
	switch x := n.(type) {
	case *plan.ScanNode:
		b, err := scan(x)
		if err != nil || x.Filter == nil {
			return b, err
		}
		return filter(ev, x.Filter, b)

	case *plan.FilterNode:
		b, err := Run(x.Child, scan)
		if err != nil {
			return nil, err
		}
		return filter(ev, x.Cond, b)

	case *plan.ProjectNode:
		b, err := Run(x.Child, scan)
		if err != nil {
			return nil, err
		}
		vecs := make([]*col.Vector, len(x.Exprs))
		for i, e := range x.Exprs {
			if vecs[i], err = ev.Eval(e, b); err != nil {
				return nil, err
			}
		}
		return &col.Batch{Vecs: vecs, N: b.N}, nil

	case *plan.AggNode:
		b, err := Run(x.Child, scan)
		if err != nil {
			return nil, err
		}
		return aggregate(ev, x, b)

	case *plan.SortNode:
		b, err := Run(x.Child, scan)
		if err != nil {
			return nil, err
		}
		return sorted(b, x.Keys), nil

	case *plan.TopNNode:
		b, err := Run(x.Child, scan)
		if err != nil {
			return nil, err
		}
		return limit(sorted(b, x.Keys), x.N, 0), nil

	case *plan.LimitNode:
		b, err := Run(x.Child, scan)
		if err != nil {
			return nil, err
		}
		return limit(b, x.Limit, x.Offset), nil
	}
	return nil, fmt.Errorf("oracle: unsupported plan node %T", n)
}

func filter(ev *Evaluator, cond plan.BoundExpr, b *col.Batch) (*col.Batch, error) {
	sel, err := ev.EvalBool(cond, b)
	if err != nil {
		return nil, err
	}
	return b.Gather(sel), nil
}

// aggregate evaluates the group keys and aggregate arguments over b, then
// folds the boxed rows with Agg.
func aggregate(ev *Evaluator, node *plan.AggNode, b *col.Batch) (*col.Batch, error) {
	flat := &plan.AggNode{Child: node.Child, GroupNames: node.GroupNames}
	var vecs []*col.Vector
	input := func(e plan.BoundExpr) (plan.BoundExpr, error) {
		v, err := ev.Eval(e, b)
		if err != nil {
			return nil, err
		}
		vecs = append(vecs, v)
		return &plan.BCol{Rel: plan.DerivedRel, Ordinal: len(vecs) - 1, Ty: e.Type()}, nil
	}
	for _, g := range node.GroupBy {
		k, err := input(g)
		if err != nil {
			return nil, err
		}
		flat.GroupBy = append(flat.GroupBy, k)
	}
	for _, spec := range node.Aggs {
		if spec.Arg != nil {
			arg, err := input(spec.Arg)
			if err != nil {
				return nil, err
			}
			spec.Arg = arg
		}
		flat.Aggs = append(flat.Aggs, spec)
	}
	rows := make([][]col.Value, b.N)
	for i := range rows {
		rows[i] = make([]col.Value, len(vecs))
		for c, v := range vecs {
			rows[i][c] = v.Value(i)
		}
	}
	res := Agg(flat, rows)
	out := &col.Batch{N: len(res)}
	for c, f := range node.Schema().Fields {
		v := col.NewVector(f.Type, len(res))
		for g, row := range res {
			v.Set(g, row[c])
		}
		out.Vecs = append(out.Vecs, v)
	}
	return out, nil
}

// sorted orders b stably by keys, NULLs last ascending and first
// descending.
func sorted(b *col.Batch, keys []plan.SortKey) *col.Batch {
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(p, q int) bool {
		for _, k := range keys {
			a, c := b.Vecs[k.Ordinal].Value(idx[p]), b.Vecs[k.Ordinal].Value(idx[q])
			if a.Null || c.Null {
				if a.Null == c.Null {
					continue
				}
				return c.Null != k.Desc
			}
			cmp := a.Compare(c)
			if cmp == 0 {
				continue
			}
			return (cmp < 0) != k.Desc
		}
		return false
	})
	return b.Gather(idx)
}

// limit keeps at most n rows (all when n < 0) after skipping offset.
func limit(b *col.Batch, n, offset int64) *col.Batch {
	from := min(offset, int64(b.N))
	to := int64(b.N)
	if n >= 0 {
		to = min(to, from+n)
	}
	return b.Slice(int(from), int(to))
}
