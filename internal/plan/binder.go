package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/pixfile"
	"repro/internal/sql"
)

// Binder resolves a parsed SELECT against a catalog database and produces
// an executable plan tree.
type Binder struct {
	cat *catalog.Catalog
	db  string
}

// NewBinder returns a binder for the given database.
func NewBinder(cat *catalog.Catalog, db string) *Binder {
	return &Binder{cat: cat, db: db}
}

// relInfo is one FROM-list entry during binding.
type relInfo struct {
	binding  string
	table    *catalog.Table
	join     sql.JoinType
	on       sql.Expr
	nullable bool // right side of a LEFT join: scan pushdown is unsafe
	usedCols map[int]bool
	scanCols []int       // sorted used table ordinals
	colPos   map[int]int // table ordinal -> position in scanCols
}

type binding struct {
	rels []*relInfo
}

// resolve finds (qualifier, name) among the relations. It reports the
// relation index and table-schema ordinal.
func (bd *binding) resolve(qual, name string) (int, int, error) {
	found := -1
	foundCol := -1
	for r, rel := range bd.rels {
		if qual != "" && rel.binding != qual {
			continue
		}
		for ci, c := range rel.table.Columns {
			if c.Name == name {
				if found >= 0 {
					return 0, 0, fmt.Errorf("plan: ambiguous column %q (in %s and %s)", name, bd.rels[found].binding, rel.binding)
				}
				found, foundCol = r, ci
			}
		}
	}
	if found < 0 {
		if qual != "" {
			return 0, 0, fmt.Errorf("plan: column %s.%s not found", qual, name)
		}
		return 0, 0, fmt.Errorf("plan: column %q not found", name)
	}
	return found, foundCol, nil
}

// BindSelect builds the plan for a SELECT statement.
func (b *Binder) BindSelect(sel *sql.Select) (Node, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}
	bd := &binding{}
	seen := make(map[string]bool)
	for _, f := range sel.From {
		t, err := b.cat.GetTable(b.db, f.Table.Name)
		if err != nil {
			return nil, err
		}
		name := f.Table.Binding()
		if seen[name] {
			return nil, fmt.Errorf("plan: duplicate table binding %q", name)
		}
		seen[name] = true
		bd.rels = append(bd.rels, &relInfo{
			binding:  name,
			table:    t,
			join:     f.Join,
			on:       f.On,
			usedCols: make(map[int]bool),
		})
	}
	for i, rel := range bd.rels {
		if i > 0 && rel.join == sql.LeftJoin {
			rel.nullable = true
		}
	}

	// Pass 1: column usage for projection pushdown.
	if err := b.collectUsage(sel, bd); err != nil {
		return nil, err
	}
	for _, rel := range bd.rels {
		if len(rel.usedCols) == 0 {
			rel.usedCols[0] = true // COUNT(*)-style scans still need a column
		}
		for c := range rel.usedCols {
			rel.scanCols = append(rel.scanCols, c)
		}
		sort.Ints(rel.scanCols)
		rel.colPos = make(map[int]int, len(rel.scanCols))
		for pos, c := range rel.scanCols {
			rel.colPos[c] = pos
		}
	}

	// Bind WHERE and classify conjuncts.
	var pushed = make(map[int][]BoundExpr) // rel -> scan-local conjuncts
	var edges []joinEdge
	var post []BoundExpr
	if sel.Where != nil {
		where, err := b.bindExpr(sel.Where, bd)
		if err == nil {
			where, err = settleCond(where, "WHERE")
		}
		if err != nil {
			return nil, err
		}
		for _, conj := range splitConjuncts(where) {
			rels := relsOf(conj)
			switch {
			case len(rels) == 1:
				r := oneKey(rels)
				if bd.rels[r].nullable {
					post = append(post, conj)
				} else {
					pushed[r] = append(pushed[r], conj)
				}
			case len(rels) == 2:
				if e, ok := asJoinEdge(conj); ok && !bd.rels[e.relA].nullable && !bd.rels[e.relB].nullable {
					edges = append(edges, e)
				} else {
					post = append(post, conj)
				}
			default:
				post = append(post, conj)
			}
		}
	}

	// Build the join tree.
	node, err := b.buildJoins(sel, bd, pushed, edges, &post)
	if err != nil {
		return nil, err
	}
	if cond := andAll(post); cond != nil {
		node = &FilterNode{Child: node, Cond: cond}
	}

	// Projection / aggregation.
	items, err := expandStars(sel.Items, bd)
	if err != nil {
		return nil, err
	}
	hasAgg := false
	for _, it := range items {
		if containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if sel.Having != nil && !hasAgg && len(sel.GroupBy) == 0 {
		return nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
	}
	if containsAggAST(sel.Where) {
		return nil, fmt.Errorf("plan: aggregates are not allowed in WHERE")
	}

	var proj *ProjectNode
	var bindHidden func(sql.Expr) (BoundExpr, error)
	if hasAgg || len(sel.GroupBy) > 0 {
		var space *aggSpace
		node, proj, space, err = b.buildAggregate(sel, items, bd, node)
		bindHidden = func(e sql.Expr) (BoundExpr, error) { return b.bindOverAgg(e, space) }
	} else {
		proj, err = b.buildProject(items, bd, node)
		node = proj
		bindHidden = func(e sql.Expr) (BoundExpr, error) { return b.bindExpr(e, bd) }
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT via group-by-all.
	if sel.Distinct {
		node = distinctNode(node)
	}

	// ORDER BY (with hidden sort-key columns when necessary).
	node, err = b.buildSort(sel, items, bd, node, proj, bindHidden)
	if err != nil {
		return nil, err
	}

	// LIMIT / OFFSET.
	if sel.Limit != nil || sel.Offset != nil {
		ln := &LimitNode{Child: node, Limit: -1}
		if sel.Limit != nil {
			ln.Limit = *sel.Limit
		}
		if sel.Offset != nil {
			ln.Offset = *sel.Offset
		}
		node = ln
	}

	if err := finalizeTree(node); err != nil {
		return nil, err
	}
	return node, nil
}

func oneKey(m map[int]bool) int {
	for k := range m {
		return k
	}
	return -1
}

// joinEdge is an equality predicate linking two relations.
type joinEdge struct {
	relA, relB int
	a, b       *BCol // a belongs to relA, b to relB
	used       bool
}

func asJoinEdge(e BoundExpr) (joinEdge, bool) {
	bb, ok := e.(*BBinary)
	if !ok || bb.Op != "=" {
		return joinEdge{}, false
	}
	l, lok := bb.L.(*BCol)
	r, rok := bb.R.(*BCol)
	if !lok || !rok || l.Rel == r.Rel {
		return joinEdge{}, false
	}
	return joinEdge{relA: l.Rel, relB: r.Rel, a: l, b: r}, true
}

// buildJoins assembles the left-deep join tree. Comma-separated FROM lists
// are reordered greedily by estimated cardinality; explicit JOIN syntax
// keeps the user's order.
func (b *Binder) buildJoins(sel *sql.Select, bd *binding, pushed map[int][]BoundExpr, edges []joinEdge, post *[]BoundExpr) (Node, error) {
	explicit := false
	for _, rel := range bd.rels[1:] {
		if rel.on != nil || rel.join == sql.LeftJoin {
			explicit = true
		}
	}

	order := make([]int, len(bd.rels))
	for i := range order {
		order[i] = i
	}
	if !explicit && len(bd.rels) > 1 {
		order = greedyOrder(bd, edges)
	}

	makeScan := func(r int) Node {
		rel := bd.rels[r]
		scan := &ScanNode{
			DB:      b.db,
			Table:   rel.table,
			Binding: rel.binding,
			Rel:     r,
			Cols:    rel.scanCols,
		}
		if conj := andAll(pushed[r]); conj != nil {
			scan.Filter = conj
			scan.ZonePreds = zonePreds(pushed[r], rel)
		}
		return scan
	}

	node := makeScan(order[0])
	joined := map[int]bool{order[0]: true}

	for _, r := range order[1:] {
		rel := bd.rels[r]
		kind := JoinInner
		if rel.join == sql.LeftJoin {
			kind = JoinLeft
		}

		var leftKeys, rightKeys []BoundExpr
		var residual []BoundExpr

		// ON condition of explicit joins.
		if rel.on != nil {
			on, err := b.bindExpr(rel.on, bd)
			if err == nil {
				on, err = settleCond(on, "ON")
			}
			if err != nil {
				return nil, err
			}
			for _, conj := range splitConjuncts(on) {
				if e, ok := asJoinEdge(conj); ok {
					if joined[e.relA] && e.relB == r {
						leftKeys = append(leftKeys, e.a)
						rightKeys = append(rightKeys, e.b)
						continue
					}
					if joined[e.relB] && e.relA == r {
						leftKeys = append(leftKeys, e.b)
						rightKeys = append(rightKeys, e.a)
						continue
					}
				}
				residual = append(residual, conj)
			}
		}
		// WHERE-derived edges apply to inner joins.
		if kind == JoinInner {
			for i := range edges {
				e := &edges[i]
				if e.used {
					continue
				}
				if joined[e.relA] && e.relB == r {
					leftKeys = append(leftKeys, e.a)
					rightKeys = append(rightKeys, e.b)
					e.used = true
				} else if joined[e.relB] && e.relA == r {
					leftKeys = append(leftKeys, e.b)
					rightKeys = append(rightKeys, e.a)
					e.used = true
				}
			}
		}
		if len(leftKeys) == 0 && kind == JoinInner && rel.on == nil {
			kind = JoinCross
		}
		jn := &JoinNode{
			Kind:      kind,
			Left:      node,
			Right:     makeScan(r),
			LeftKeys:  leftKeys,
			RightKeys: rightKeys,
			Residual:  andAll(residual),
		}
		node = jn
		joined[r] = true
	}

	// Unused WHERE edges (e.g. both rels joined before the edge could
	// apply) become post-join filters.
	for i := range edges {
		if !edges[i].used {
			*post = append(*post, &BBinary{Op: "=", L: edges[i].a, R: edges[i].b, Ty: col.BOOL})
		}
	}
	return node, nil
}

// greedyOrder picks a join order for comma-join lists: start from the
// largest relation, repeatedly take the smallest relation connected by an
// equality edge (falling back to the smallest remaining). Largest-first
// keeps the big fact table on the probe (left) side of the left-deep
// chain, so every hash build indexes a dimension-sized input — and the
// engine can partition the probe scan across parallel workers while
// sharing one small build table.
func greedyOrder(bd *binding, edges []joinEdge) []int {
	n := len(bd.rels)
	rows := func(r int) int64 {
		c := bd.rels[r].table.RowCount()
		if c <= 0 {
			c = 1 << 40 // unknown: assume huge
		}
		return c
	}
	remaining := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		remaining[i] = true
	}
	largest := 0
	for r := range remaining {
		if rows(r) > rows(largest) {
			largest = r
		}
	}
	order := []int{largest}
	delete(remaining, largest)
	inOrder := map[int]bool{largest: true}
	for len(remaining) > 0 {
		best, bestConn := -1, false
		for r := range remaining {
			conn := false
			for _, e := range edges {
				if (inOrder[e.relA] && e.relB == r) || (inOrder[e.relB] && e.relA == r) {
					conn = true
					break
				}
			}
			if best == -1 || (conn && !bestConn) || (conn == bestConn && rows(r) < rows(best)) {
				best, bestConn = r, conn
			}
		}
		order = append(order, best)
		inOrder[best] = true
		delete(remaining, best)
	}
	return order
}

// zonePreds extracts "col cmp literal" conjuncts as zone-map predicates in
// table-schema ordinals.
func zonePreds(conjuncts []BoundExpr, rel *relInfo) []pixfile.ColPredicate {
	var out []pixfile.ColPredicate
	for _, c := range conjuncts {
		bb, ok := c.(*BBinary)
		if !ok {
			continue
		}
		var bc *BCol
		var lit *BLit
		flip := false
		if l, lok := bb.L.(*BCol); lok {
			if r, rok := bb.R.(*BLit); rok {
				bc, lit = l, r
			}
		} else if r, rok := bb.R.(*BCol); rok {
			if l, lok := bb.L.(*BLit); lok {
				bc, lit, flip = r, l, true
			}
		}
		if bc == nil || lit.Val.Null {
			continue
		}
		op, ok := cmpOpOf(bb.Op, flip)
		if !ok {
			continue
		}
		out = append(out, pixfile.ColPredicate{Col: rel.scanCols[bc.Idx], Op: op, Val: lit.Val})
	}
	return out
}

func cmpOpOf(op string, flip bool) (pixfile.CmpOp, bool) {
	if flip {
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	switch op {
	case "=":
		return pixfile.CmpEQ, true
	case "<>":
		return pixfile.CmpNE, true
	case "<":
		return pixfile.CmpLT, true
	case "<=":
		return pixfile.CmpLE, true
	case ">":
		return pixfile.CmpGT, true
	case ">=":
		return pixfile.CmpGE, true
	default:
		return 0, false
	}
}

// collectUsage walks the statement recording which base columns each
// relation must produce.
func (b *Binder) collectUsage(sel *sql.Select, bd *binding) error {
	mark := func(qual, name string) error {
		rel, ci, err := bd.resolve(qual, name)
		if err != nil {
			return err
		}
		bd.rels[rel].usedCols[ci] = true
		return nil
	}
	var walkAST func(e sql.Expr) error
	walkAST = func(e sql.Expr) error {
		switch x := e.(type) {
		case nil:
			return nil
		case *sql.Literal:
			return nil
		case *sql.ColumnRef:
			return mark(x.Table, x.Name)
		case *sql.Unary:
			return walkAST(x.X)
		case *sql.Binary:
			if err := walkAST(x.L); err != nil {
				return err
			}
			return walkAST(x.R)
		case *sql.IsNull:
			return walkAST(x.X)
		case *sql.In:
			if err := walkAST(x.X); err != nil {
				return err
			}
			for _, it := range x.List {
				if err := walkAST(it); err != nil {
					return err
				}
			}
			return nil
		case *sql.Between:
			if err := walkAST(x.X); err != nil {
				return err
			}
			if err := walkAST(x.Lo); err != nil {
				return err
			}
			return walkAST(x.Hi)
		case *sql.FuncCall:
			for _, a := range x.Args {
				if err := walkAST(a); err != nil {
					return err
				}
			}
			return nil
		case *sql.Cast:
			return walkAST(x.X)
		case *sql.Case:
			for _, w := range x.Whens {
				if err := walkAST(w.Cond); err != nil {
					return err
				}
				if err := walkAST(w.Result); err != nil {
					return err
				}
			}
			return walkAST(x.Else)
		default:
			return fmt.Errorf("plan: unsupported expression %T", e)
		}
	}

	for _, it := range sel.Items {
		if it.Star {
			for r, rel := range bd.rels {
				if it.Table != "" && rel.binding != it.Table {
					continue
				}
				if it.Table == "" || rel.binding == it.Table {
					for ci := range rel.table.Columns {
						bd.rels[r].usedCols[ci] = true
					}
				}
			}
			if it.Table != "" {
				found := false
				for _, rel := range bd.rels {
					if rel.binding == it.Table {
						found = true
					}
				}
				if !found {
					return fmt.Errorf("plan: unknown table %q in %s.*", it.Table, it.Table)
				}
			}
			continue
		}
		if err := walkAST(it.Expr); err != nil {
			return err
		}
	}
	for _, f := range sel.From {
		if f.On != nil {
			if err := walkAST(f.On); err != nil {
				return err
			}
		}
	}
	if err := walkAST(sel.Where); err != nil {
		return err
	}
	for _, g := range sel.GroupBy {
		// GROUP BY may name a select alias; its base columns were already
		// collected through the select item.
		if ref, ok := g.(*sql.ColumnRef); ok && ref.Table == "" {
			if _, _, err := bd.resolve("", ref.Name); err != nil {
				aliased := false
				for _, it := range sel.Items {
					if it.Alias == ref.Name {
						aliased = true
						break
					}
				}
				if aliased {
					continue
				}
			}
		}
		if err := walkAST(g); err != nil {
			return err
		}
	}
	if err := walkAST(sel.Having); err != nil {
		return err
	}
	for _, o := range sel.OrderBy {
		// ORDER BY may reference select aliases; tolerate unresolvable
		// bare columns here and settle them during sort binding.
		if ref, ok := o.Expr.(*sql.ColumnRef); ok && ref.Table == "" {
			if _, _, err := bd.resolve("", ref.Name); err != nil {
				continue
			}
		}
		if err := walkAST(o.Expr); err != nil {
			if _, isLit := o.Expr.(*sql.Literal); isLit {
				continue // ORDER BY 2 positional form
			}
			return err
		}
	}
	return nil
}

// expandStars replaces * and t.* with explicit column items.
func expandStars(items []sql.SelectItem, bd *binding) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, rel := range bd.rels {
			if it.Table != "" && rel.binding != it.Table {
				continue
			}
			for _, c := range rel.table.Columns {
				out = append(out, sql.SelectItem{
					Expr: &sql.ColumnRef{Table: rel.binding, Name: c.Name},
				})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	return out, nil
}

// itemName picks the output column name for a select item.
func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*sql.ColumnRef); ok {
		return ref.Name
	}
	return strings.ToLower(it.Expr.String())
}

// buildProject binds a plain (non-aggregate) projection.
func (b *Binder) buildProject(items []sql.SelectItem, bd *binding, child Node) (*ProjectNode, error) {
	p := &ProjectNode{Child: child}
	for _, it := range items {
		e, err := b.bindExpr(it.Expr, bd)
		if err != nil {
			return nil, err
		}
		p.Exprs = append(p.Exprs, settleRoot(e))
		p.Names = append(p.Names, itemName(it))
	}
	return p, nil
}

// distinctNode wraps a node in a group-by-all-columns aggregation.
func distinctNode(child Node) Node {
	schema := child.Schema()
	agg := &AggNode{Child: child}
	for i, f := range schema.Fields {
		agg.GroupBy = append(agg.GroupBy, &BCol{
			Rel: DerivedRel, Ordinal: i, Name: f.Name, Ty: f.Type, Nullable: f.Nullable,
		})
		agg.GroupNames = append(agg.GroupNames, f.Name)
	}
	return agg
}
