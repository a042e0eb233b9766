package plan

import (
	"encoding/gob"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/pixfile"
)

// Node is an operator of the physical plan tree. A bound plan is read-only
// once BindSelect returns: nothing writes to its nodes or bound expressions,
// so one plan may be executed by many goroutines at once (plan-cache hits
// share it). Rewrites such as CF splits build new nodes around the shared
// ones instead of editing them. Every node type registers with
// encoding/gob beside its definition, so a CF worker's fragment crosses
// the wire as the plan itself (EncodeFragment).
type Node interface {
	// Schema is the operator's output schema, built from the node's
	// fields on every call; a per-batch path keeps the result.
	Schema() *col.Schema
	// Children returns input operators, outermost last in execution order.
	Children() []Node
	// Label is a one-line description for EXPLAIN.
	Label() string
}

// ScanNode reads a base table with projection, a pushed-down filter and
// zone-map predicates.
type ScanNode struct {
	DB      string
	Table   *catalog.Table
	Binding string // alias or table name, for EXPLAIN
	Rel     int    // relation index in the FROM list

	Cols   []int     // table-schema ordinals, in output order
	Filter BoundExpr // over the projected output; nil = none
	// ZonePreds are conjuncts usable for row-group pruning; Col indexes
	// the table schema (not the projected output).
	ZonePreds []pixfile.ColPredicate
}

func init() { gob.RegisterName("scan", (*ScanNode)(nil)) }

// Schema implements Node.
func (s *ScanNode) Schema() *col.Schema {
	fields := make([]col.Field, len(s.Cols))
	for i, c := range s.Cols {
		tc := s.Table.Columns[c]
		fields[i] = col.Field{Name: tc.Name, Type: tc.Type, Nullable: tc.Nullable}
	}
	return col.NewSchema(fields...)
}

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// Label implements Node.
func (s *ScanNode) Label() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scan %s.%s", s.DB, s.Table.Name)
	if s.Binding != s.Table.Name {
		fmt.Fprintf(&sb, " AS %s", s.Binding)
	}
	fmt.Fprintf(&sb, " cols=%v", s.Schema().Names())
	if s.Filter != nil {
		fmt.Fprintf(&sb, " filter=%s", s.Filter)
	}
	if len(s.ZonePreds) > 0 {
		fmt.Fprintf(&sb, " zonemap=%d", len(s.ZonePreds))
	}
	return sb.String()
}

// FilterNode drops rows whose condition is not TRUE.
type FilterNode struct {
	Child Node
	Cond  BoundExpr
}

func init() { gob.RegisterName("filter", (*FilterNode)(nil)) }

// Schema implements Node.
func (f *FilterNode) Schema() *col.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *FilterNode) Children() []Node { return []Node{f.Child} }

// Label implements Node.
func (f *FilterNode) Label() string { return "Filter " + f.Cond.String() }

// ProjectNode computes expressions over its input.
type ProjectNode struct {
	Child Node
	Exprs []BoundExpr
	Names []string
}

func init() { gob.RegisterName("project", (*ProjectNode)(nil)) }

// Schema implements Node.
func (p *ProjectNode) Schema() *col.Schema {
	fields := make([]col.Field, len(p.Exprs))
	for i, e := range p.Exprs {
		fields[i] = col.Field{Name: p.Names[i], Type: e.Type(), Nullable: true}
	}
	return col.NewSchema(fields...)
}

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Child} }

// Label implements Node.
func (p *ProjectNode) Label() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
		if p.Names[i] != "" && p.Names[i] != e.String() {
			parts[i] += " AS " + p.Names[i]
		}
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinKind enumerates join algebra supported by the executor.
type JoinKind uint8

// Supported join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	default:
		return "CROSS"
	}
}

// JoinNode is a hash join on equi keys with an optional residual predicate
// evaluated over the concatenated output. A cross join is a hash join on
// zero keys.
type JoinNode struct {
	Kind        JoinKind
	Left, Right Node
	// LeftKeys/RightKeys are matching equi-join key expressions over the
	// respective input schemas.
	LeftKeys, RightKeys []BoundExpr
	// Residual is evaluated over [left columns..., right columns...].
	Residual BoundExpr
}

func init() { gob.RegisterName("join", (*JoinNode)(nil)) }

// Schema implements Node.
func (j *JoinNode) Schema() *col.Schema {
	lf := j.Left.Schema().Fields
	rf := j.Right.Schema().Fields
	fields := make([]col.Field, 0, len(lf)+len(rf))
	fields = append(fields, lf...)
	for _, f := range rf {
		if j.Kind == JoinLeft {
			f.Nullable = true
		}
		fields = append(fields, f)
	}
	return col.NewSchema(fields...)
}

// Children implements Node.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// Label implements Node.
func (j *JoinNode) Label() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s Join", j.Kind)
	if len(j.LeftKeys) > 0 {
		keys := make([]string, len(j.LeftKeys))
		for i := range j.LeftKeys {
			keys[i] = j.LeftKeys[i].String() + " = " + j.RightKeys[i].String()
		}
		fmt.Fprintf(&sb, " on %s", strings.Join(keys, " AND "))
	}
	if j.Residual != nil {
		fmt.Fprintf(&sb, " residual=%s", j.Residual)
	}
	return sb.String()
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount, AggCountStar:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "AGG?"
	}
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     AggFunc
	Arg      BoundExpr // nil for COUNT(*)
	Distinct bool
	Name     string   // output column name
	Ty       col.Type // result type
}

func (a AggSpec) String() string {
	if a.Func == AggCountStar {
		return "COUNT(*)"
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Func, d, a.Arg)
}

// AggNode groups by expressions and computes aggregates. Output schema is
// [group columns..., aggregate results...].
type AggNode struct {
	Child      Node
	GroupBy    []BoundExpr
	GroupNames []string
	Aggs       []AggSpec
}

func init() { gob.RegisterName("agg", (*AggNode)(nil)) }

// Schema implements Node.
func (a *AggNode) Schema() *col.Schema {
	fields := make([]col.Field, 0, len(a.GroupBy)+len(a.Aggs))
	for i, g := range a.GroupBy {
		fields = append(fields, col.Field{Name: a.GroupNames[i], Type: g.Type(), Nullable: true})
	}
	for _, sp := range a.Aggs {
		fields = append(fields, col.Field{Name: sp.Name, Type: sp.Ty, Nullable: true})
	}
	return col.NewSchema(fields...)
}

// Children implements Node.
func (a *AggNode) Children() []Node { return []Node{a.Child} }

// Label implements Node.
func (a *AggNode) Label() string {
	var sb strings.Builder
	sb.WriteString("HashAgg")
	if len(a.GroupBy) > 0 {
		keys := make([]string, len(a.GroupBy))
		for i, g := range a.GroupBy {
			keys[i] = g.String()
		}
		fmt.Fprintf(&sb, " group=%s", strings.Join(keys, ", "))
	}
	aggs := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		aggs[i] = sp.String()
	}
	fmt.Fprintf(&sb, " aggs=%s", strings.Join(aggs, ", "))
	return sb.String()
}

// SortKey is one ORDER BY key over the child's output schema.
type SortKey struct {
	Ordinal int
	Desc    bool
}

// SortNode totally orders its input.
type SortNode struct {
	Child Node
	Keys  []SortKey
}

func init() { gob.RegisterName("sort", (*SortNode)(nil)) }

// Schema implements Node.
func (s *SortNode) Schema() *col.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *SortNode) Label() string {
	keys := make([]string, len(s.Keys))
	names := s.Child.Schema().Names()
	for i, k := range s.Keys {
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		keys[i] = fmt.Sprintf("%s %s", names[k.Ordinal], dir)
	}
	return "Sort " + strings.Join(keys, ", ")
}

// TopNNode is a bounded sort: it keeps the first N rows of its input under
// the sort-key order (ties broken by arrival order, matching a stable sort
// followed by LIMIT) and emits them sorted. The binder emits it in place of
// the SortNode under every LIMIT whose LIMIT+OFFSET fits in int64, so
// every width runs ORDER BY … LIMIT in O(N) memory; a split runs the same
// node in each worker and again over the workers' survivors.
type TopNNode struct {
	Child Node
	Keys  []SortKey
	N     int64 // rows to keep (LIMIT + OFFSET of the plan it replaces)
}

func init() { gob.RegisterName("topn", (*TopNNode)(nil)) }

// Schema implements Node.
func (t *TopNNode) Schema() *col.Schema { return t.Child.Schema() }

// Children implements Node.
func (t *TopNNode) Children() []Node { return []Node{t.Child} }

// Label implements Node.
func (t *TopNNode) Label() string {
	keys := make([]string, len(t.Keys))
	names := t.Child.Schema().Names()
	for i, k := range t.Keys {
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		keys[i] = fmt.Sprintf("%s %s", names[k.Ordinal], dir)
	}
	return fmt.Sprintf("TopN %d by %s", t.N, strings.Join(keys, ", "))
}

// LimitNode truncates its input.
type LimitNode struct {
	Child  Node
	Limit  int64 // -1 means no limit (offset only)
	Offset int64
}

func init() { gob.RegisterName("limit", (*LimitNode)(nil)) }

// Schema implements Node.
func (l *LimitNode) Schema() *col.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Child} }

// Label implements Node.
func (l *LimitNode) Label() string {
	if l.Limit < 0 {
		return fmt.Sprintf("Offset %d", l.Offset)
	}
	if l.Offset > 0 {
		return fmt.Sprintf("Limit %d Offset %d", l.Limit, l.Offset)
	}
	return fmt.Sprintf("Limit %d", l.Limit)
}

// Explain renders the plan as an indented tree.
func Explain(n Node) string {
	var sb strings.Builder
	explainInto(&sb, n, 0)
	return sb.String()
}

func explainInto(sb *strings.Builder, n Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(n.Label())
	sb.WriteString("\n")
	for _, c := range n.Children() {
		explainInto(sb, c, depth+1)
	}
}

// Scans returns every ScanNode in the tree, left to right. The engine uses
// this to partition work across CF workers and to account bytes.
func Scans(n Node) []*ScanNode {
	var out []*ScanNode
	var rec func(Node)
	rec = func(m Node) {
		if s, ok := m.(*ScanNode); ok {
			out = append(out, s)
		}
		for _, c := range m.Children() {
			rec(c)
		}
	}
	rec(n)
	return out
}
