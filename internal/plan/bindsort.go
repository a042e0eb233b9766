package plan

import (
	"fmt"
	"math"

	"repro/internal/col"
	"repro/internal/sql"
)

// buildSort resolves ORDER BY keys against the projection output. Keys may
// be output names/aliases, positional ordinals (ORDER BY 2), expressions
// that textually match a select item, or — when the query is not DISTINCT —
// arbitrary expressions, which are appended as hidden projection columns
// and trimmed after the sort.
func (b *Binder) buildSort(sel *sql.Select, items []sql.SelectItem, bd *binding, node Node, proj *ProjectNode, bindHidden func(sql.Expr) (BoundExpr, error)) (Node, error) {
	if len(sel.OrderBy) == 0 {
		return node, nil
	}
	outSchema := node.Schema()
	visible := len(outSchema.Fields)

	// Canonical strings of the select items, positionally.
	itemKeys := make([]string, len(items))
	for i, it := range items {
		itemKeys[i] = canonical(it.Expr)
	}

	var keys []SortKey
	hidden := 0
	for _, o := range sel.OrderBy {
		ord := -1
		switch x := o.Expr.(type) {
		case *sql.Literal:
			if x.Val.Type != col.INT64 || x.Val.I < 1 || x.Val.I > int64(visible) {
				return nil, fmt.Errorf("plan: ORDER BY position %s out of range 1..%d", x.Val, visible)
			}
			ord = int(x.Val.I - 1)
		case *sql.ColumnRef:
			if x.Table == "" {
				ord = outSchema.Index(x.Name)
			}
		}
		if ord < 0 {
			key := canonical(o.Expr)
			for i, ik := range itemKeys {
				if ik == key {
					ord = i
					break
				}
			}
		}
		if ord < 0 {
			// Hidden sort key.
			if sel.Distinct {
				return nil, fmt.Errorf("plan: ORDER BY expression %q must appear in the DISTINCT select list", o.Expr)
			}
			if proj == nil {
				return nil, fmt.Errorf("plan: cannot resolve ORDER BY expression %q", o.Expr)
			}
			bound, err := bindHidden(o.Expr)
			if err != nil {
				return nil, err
			}
			proj.Exprs = append(proj.Exprs, settleRoot(bound))
			proj.Names = append(proj.Names, fmt.Sprintf("__sort%d", hidden))
			ord = len(proj.Exprs) - 1
			hidden++
		}
		keys = append(keys, SortKey{Ordinal: ord, Desc: o.Desc})
	}

	var sorted Node = &SortNode{Child: node, Keys: keys}
	if hidden > 0 {
		// Trim hidden keys after sorting.
		trim := &ProjectNode{Child: sorted}
		schema := proj.Schema()
		for i := 0; i < visible; i++ {
			f := schema.Fields[i]
			trim.Exprs = append(trim.Exprs, &BCol{Rel: DerivedRel, Ordinal: i, Name: f.Name, Ty: f.Type, Nullable: f.Nullable})
			trim.Names = append(trim.Names, f.Name)
		}
		sorted = trim
	}
	return sorted, nil
}

// boundSort turns the sort under a LIMIT — directly below it, or below the
// hidden-sort-key trim projection — into a TopNNode keeping LIMIT+OFFSET
// rows. With no LIMIT, or a LIMIT+OFFSET past int64, the sort stays whole.
func boundSort(ln *LimitNode) {
	if ln.Limit < 0 || ln.Offset > math.MaxInt64-ln.Limit {
		return
	}
	slot := &ln.Child
	if p, ok := ln.Child.(*ProjectNode); ok {
		slot = &p.Child
	}
	if s, ok := (*slot).(*SortNode); ok {
		*slot = &TopNNode{Child: s.Child, Keys: s.Keys, N: ln.Limit + ln.Offset}
	}
}

// layoutOf computes the relation→offset layout of a node's output, or nil
// for derived schemas (projection/aggregation output).
func layoutOf(n Node) map[int]int {
	switch x := n.(type) {
	case *ScanNode:
		return map[int]int{x.Rel: 0}
	case *FilterNode:
		return layoutOf(x.Child)
	case *JoinNode:
		left := layoutOf(x.Left)
		right := layoutOf(x.Right)
		if left == nil || right == nil {
			return nil
		}
		merged := make(map[int]int, len(left)+len(right))
		for r, off := range left {
			merged[r] = off
		}
		shift := x.Left.Schema().Len()
		for r, off := range right {
			merged[r] = off + shift
		}
		return merged
	default:
		return nil
	}
}

// finalizeTree assigns flat ordinals to every bound expression in the tree.
func finalizeTree(n Node) error {
	switch x := n.(type) {
	case *ScanNode:
		if x.Filter != nil {
			return finalize(x.Filter, map[int]int{x.Rel: 0})
		}
		return nil
	case *FilterNode:
		if err := finalizeTree(x.Child); err != nil {
			return err
		}
		return finalize(x.Cond, layoutOf(x.Child))
	case *ProjectNode:
		if err := finalizeTree(x.Child); err != nil {
			return err
		}
		lay := layoutOf(x.Child)
		for _, e := range x.Exprs {
			if err := finalize(e, lay); err != nil {
				return err
			}
		}
		return nil
	case *JoinNode:
		if err := finalizeTree(x.Left); err != nil {
			return err
		}
		if err := finalizeTree(x.Right); err != nil {
			return err
		}
		leftLay := layoutOf(x.Left)
		rightLay := layoutOf(x.Right)
		for _, k := range x.LeftKeys {
			if err := finalize(k, leftLay); err != nil {
				return err
			}
		}
		for _, k := range x.RightKeys {
			if err := finalize(k, rightLay); err != nil {
				return err
			}
		}
		if x.Residual != nil {
			return finalize(x.Residual, layoutOf(x))
		}
		return nil
	case *AggNode:
		if err := finalizeTree(x.Child); err != nil {
			return err
		}
		lay := layoutOf(x.Child)
		for _, g := range x.GroupBy {
			if err := finalize(g, lay); err != nil {
				return err
			}
		}
		for _, sp := range x.Aggs {
			if sp.Arg != nil {
				if err := finalize(sp.Arg, lay); err != nil {
					return err
				}
			}
		}
		return nil
	case *SortNode:
		return finalizeTree(x.Child)
	case *TopNNode:
		return finalizeTree(x.Child)
	case *LimitNode:
		return finalizeTree(x.Child)
	default:
		return fmt.Errorf("plan: finalize: unknown node %T", n)
	}
}
