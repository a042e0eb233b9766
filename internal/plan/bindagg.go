package plan

import (
	"fmt"

	"repro/internal/col"
	"repro/internal/sql"
)

// aggSpace tracks the output layout of an AggNode during binding: group
// expressions first, then aggregate results, addressed by the canonical
// string of the originating AST expression.
type aggSpace struct {
	agg    *AggNode
	byExpr map[string]int // canonical AST string -> output ordinal
}

// buildAggregate plans GROUP BY + aggregates: a pre-aggregation child, the
// AggNode, an optional HAVING filter and the post-aggregation projection.
// It returns the top node, the projection (for ORDER BY resolution) and the
// aggregate output space (for hidden ORDER BY keys).
func (b *Binder) buildAggregate(sel *sql.Select, items []sql.SelectItem, bd *binding, child Node) (Node, *ProjectNode, *aggSpace, error) {
	space := &aggSpace{
		agg:    &AggNode{Child: child},
		byExpr: make(map[string]int),
	}

	// Group keys.
	for _, g := range sel.GroupBy {
		key := canonical(g)
		if _, ok := space.byExpr[key]; ok {
			continue
		}
		bound, err := b.bindExpr(g, bd)
		if err != nil {
			// GROUP BY may name a select alias.
			if ref, isRef := g.(*sql.ColumnRef); isRef && ref.Table == "" {
				if target := findAlias(items, ref.Name); target != nil {
					bound, err = b.bindExpr(target, bd)
					if err == nil {
						key = canonical(target)
					}
				}
			}
			if err != nil {
				return nil, nil, nil, err
			}
			if _, ok := space.byExpr[key]; ok {
				continue
			}
		}
		name := g.String()
		if ref, ok := g.(*sql.ColumnRef); ok {
			name = ref.Name
		}
		space.byExpr[key] = len(space.agg.GroupBy)
		space.agg.GroupBy = append(space.agg.GroupBy, settleRoot(bound))
		space.agg.GroupNames = append(space.agg.GroupNames, name)
	}

	// Collect aggregate calls from select items, HAVING and ORDER BY.
	collect := func(e sql.Expr) error { return b.collectAggs(e, bd, space) }
	for _, it := range items {
		if err := collect(it.Expr); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := collect(sel.Having); err != nil {
		return nil, nil, nil, err
	}
	for _, o := range sel.OrderBy {
		if containsAggAST(o.Expr) {
			if err := collect(o.Expr); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	if len(space.agg.Aggs) == 0 && len(space.agg.GroupBy) == 0 {
		return nil, nil, nil, fmt.Errorf("plan: internal error: aggregate path without aggregates")
	}

	var node Node = space.agg

	// HAVING filters the aggregate output.
	if sel.Having != nil {
		cond, err := b.bindOverAgg(sel.Having, space)
		if err == nil {
			cond, err = settleCond(cond, "HAVING")
		}
		if err != nil {
			return nil, nil, nil, err
		}
		node = &FilterNode{Child: node, Cond: cond}
	}

	// Post-aggregation projection of the select items.
	proj := &ProjectNode{Child: node}
	for _, it := range items {
		e, err := b.bindOverAgg(it.Expr, space)
		if err != nil {
			return nil, nil, nil, err
		}
		proj.Exprs = append(proj.Exprs, settleRoot(e))
		proj.Names = append(proj.Names, itemName(it))
	}
	return proj, proj, space, nil
}

func findAlias(items []sql.SelectItem, alias string) sql.Expr {
	for _, it := range items {
		if it.Alias == alias {
			return it.Expr
		}
	}
	return nil
}

// collectAggs registers every aggregate call inside e as an AggSpec.
func (b *Binder) collectAggs(e sql.Expr, bd *binding, space *aggSpace) error {
	switch x := e.(type) {
	case nil, *sql.Literal, *sql.ColumnRef:
		return nil
	case *sql.Unary:
		return b.collectAggs(x.X, bd, space)
	case *sql.Binary:
		if err := b.collectAggs(x.L, bd, space); err != nil {
			return err
		}
		return b.collectAggs(x.R, bd, space)
	case *sql.IsNull:
		return b.collectAggs(x.X, bd, space)
	case *sql.In:
		return b.collectAggs(x.X, bd, space)
	case *sql.Between:
		for _, sub := range []sql.Expr{x.X, x.Lo, x.Hi} {
			if err := b.collectAggs(sub, bd, space); err != nil {
				return err
			}
		}
		return nil
	case *sql.Cast:
		return b.collectAggs(x.X, bd, space)
	case *sql.Case:
		for _, w := range x.Whens {
			if err := b.collectAggs(w.Cond, bd, space); err != nil {
				return err
			}
			if err := b.collectAggs(w.Result, bd, space); err != nil {
				return err
			}
		}
		return b.collectAggs(x.Else, bd, space)
	case *sql.FuncCall:
		fn, isAgg := aggFuncs[x.Name]
		if !isAgg {
			for _, a := range x.Args {
				if err := b.collectAggs(a, bd, space); err != nil {
					return err
				}
			}
			return nil
		}
		key := canonical(x)
		if _, ok := space.byExpr[key]; ok {
			return nil
		}
		spec := AggSpec{Distinct: x.Distinct, Name: key}
		if x.Star {
			if fn != AggCount {
				return fmt.Errorf("plan: %s(*) is not valid", x.Name)
			}
			spec.Func = AggCountStar
			spec.Ty = col.INT64
		} else {
			if len(x.Args) != 1 {
				return fmt.Errorf("plan: %s takes exactly one argument", x.Name)
			}
			if containsAggAST(x.Args[0]) {
				return fmt.Errorf("plan: nested aggregates are not allowed")
			}
			arg, err := b.bindExpr(x.Args[0], bd)
			if err != nil {
				return err
			}
			arg = settleRoot(arg)
			spec.Func = fn
			spec.Arg = arg
			switch fn {
			case AggCount:
				spec.Ty = col.INT64
			case AggSum:
				if !arg.Type().Numeric() {
					return fmt.Errorf("plan: SUM requires a number, got %s", arg.Type())
				}
				spec.Ty = arg.Type()
			case AggAvg:
				if !arg.Type().Numeric() {
					return fmt.Errorf("plan: AVG requires a number, got %s", arg.Type())
				}
				spec.Ty = col.FLOAT64
			case AggMin, AggMax:
				if !arg.Type().Orderable() {
					return fmt.Errorf("plan: %s requires an orderable type, got %s", x.Name, arg.Type())
				}
				spec.Ty = arg.Type()
			}
		}
		space.byExpr[key] = len(space.agg.GroupBy) + len(space.agg.Aggs)
		space.agg.Aggs = append(space.agg.Aggs, spec)
		return nil
	default:
		return fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// bindOverAgg binds an AST expression over the aggregate output space.
// Group expressions and aggregate calls resolve to derived columns; other
// structure is recursed into; bare columns must be group keys.
func (b *Binder) bindOverAgg(e sql.Expr, space *aggSpace) (BoundExpr, error) {
	return bindTree(e, func(e sql.Expr) (BoundExpr, bool, error) {
		if pos, ok := space.byExpr[canonical(e)]; ok {
			return space.derivedCol(pos), true, nil
		}
		if x, ok := e.(*sql.ColumnRef); ok {
			return nil, true, fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", x.String())
		}
		return nil, false, nil
	})
}

// derivedCol builds a reference to aggregate output position pos.
func (s *aggSpace) derivedCol(pos int) *BCol {
	schema := s.agg.Schema()
	f := schema.Fields[pos]
	return &BCol{Rel: DerivedRel, Ordinal: pos, Name: f.Name, Ty: f.Type, Nullable: f.Nullable}
}
