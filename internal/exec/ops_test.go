package exec

import (
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// sliceSource feeds pre-built batches through an Operator-compatible scan.
func sliceSource(schema *col.Schema, batches ...*col.Batch) Operator {
	node := &plan.ScanNode{}
	_ = node
	return &memOp{schema: schema, batches: batches}
}

type memOp struct {
	schema  *col.Schema
	batches []*col.Batch
	pos     int
}

func (m *memOp) Schema() *col.Schema { return m.schema }
func (m *memOp) Open() error         { m.pos = 0; return nil }
func (m *memOp) Next() (*col.Batch, error) {
	if m.pos >= len(m.batches) {
		return nil, nil
	}
	b := m.batches[m.pos]
	m.pos++
	return b, nil
}
func (m *memOp) Close() error { return nil }

func colRef(ord int, ty col.Type) *plan.BCol {
	return &plan.BCol{Rel: plan.DerivedRel, Ordinal: ord, Name: "c", Ty: ty}
}

func intsVec(vals ...int64) *col.Vector {
	v := col.NewVector(col.INT64, len(vals))
	copy(v.Ints, vals)
	return v
}

// must unwraps an operator constructor, which fails only on an expression
// vec cannot compile.
func must[T Operator](op T, err error) T {
	if err != nil {
		panic(err)
	}
	return op
}

func kvBatch(keys []int64, vals []string) *col.Batch {
	k := col.NewVector(col.INT64, len(keys))
	copy(k.Ints, keys)
	v := col.NewVector(col.STRING, len(vals))
	copy(v.Strs, vals)
	return col.NewBatch(k, v)
}

var kvSchema = col.NewSchema(
	col.Field{Name: "k", Type: col.INT64},
	col.Field{Name: "v", Type: col.STRING},
)

func TestHashJoinInner(t *testing.T) {
	left := sliceSource(kvSchema, kvBatch([]int64{1, 2, 3, 2}, []string{"a", "b", "c", "b2"}))
	right := sliceSource(kvSchema, kvBatch([]int64{2, 3, 4}, []string{"X", "Y", "Z"}))
	node := &plan.JoinNode{
		Kind:      plan.JoinInner,
		Left:      &plan.ScanNode{},
		Right:     &plan.ScanNode{},
		LeftKeys:  []plan.BoundExpr{colRef(0, col.INT64)},
		RightKeys: []plan.BoundExpr{colRef(0, col.INT64)},
	}
	// JoinNode.Schema needs real children; build output manually by using
	// the operator only.
	node.Left = fakeNode(kvSchema)
	node.Right = fakeNode(kvSchema)
	op := must(NewHashJoinOp(node, left, right))
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 3 { // keys 2,3,2 match
		t.Fatalf("rows = %d: %v", out.N, rowsOf(out))
	}
	rows := rowsOf(out)
	want := map[string]bool{"2|b|2|X": true, "3|c|3|Y": true, "2|b2|2|X": true}
	for _, r := range rows {
		if !want[r] {
			t.Fatalf("unexpected row %q (all %v)", r, rows)
		}
	}
}

func TestHashJoinLeftEmitsUnmatched(t *testing.T) {
	left := sliceSource(kvSchema, kvBatch([]int64{1, 2}, []string{"a", "b"}))
	right := sliceSource(kvSchema, kvBatch([]int64{2}, []string{"X"}))
	node := &plan.JoinNode{
		Kind:      plan.JoinLeft,
		Left:      fakeNode(kvSchema),
		Right:     fakeNode(kvSchema),
		LeftKeys:  []plan.BoundExpr{colRef(0, col.INT64)},
		RightKeys: []plan.BoundExpr{colRef(0, col.INT64)},
	}
	out, err := Collect(must(NewHashJoinOp(node, left, right)))
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 {
		t.Fatalf("rows = %v", rowsOf(out))
	}
	// Row for key 1 must have NULL right side.
	foundNull := false
	for i := 0; i < out.N; i++ {
		if out.Vecs[0].Ints[i] == 1 {
			if !out.Vecs[2].IsNull(i) || !out.Vecs[3].IsNull(i) {
				t.Fatalf("unmatched row not NULL-extended: %v", out.Row(i))
			}
			foundNull = true
		}
	}
	if !foundNull {
		t.Fatalf("unmatched left row missing")
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	lk := col.NewVector(col.INT64, 2)
	lk.Ints = []int64{1, 0}
	lk.SetNull(1)
	lv := col.NewVector(col.STRING, 2)
	lv.Strs = []string{"a", "b"}
	lb := col.NewBatch(lk, lv)

	rk := col.NewVector(col.INT64, 2)
	rk.Ints = []int64{1, 0}
	rk.SetNull(1)
	rv := col.NewVector(col.STRING, 2)
	rv.Strs = []string{"X", "Y"}
	rb := col.NewBatch(rk, rv)

	node := &plan.JoinNode{
		Kind:      plan.JoinInner,
		Left:      fakeNode(kvSchema),
		Right:     fakeNode(kvSchema),
		LeftKeys:  []plan.BoundExpr{colRef(0, col.INT64)},
		RightKeys: []plan.BoundExpr{colRef(0, col.INT64)},
	}
	out, err := Collect(must(NewHashJoinOp(node, sliceSource(kvSchema, lb), sliceSource(kvSchema, rb))))
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 1 || out.Vecs[0].Ints[0] != 1 {
		t.Fatalf("NULL keys joined: %v", rowsOf(out))
	}
}

func TestHashJoinMixedNumericKeys(t *testing.T) {
	// INT64 = FLOAT64 is a valid equi-join edge; keys must coerce so 1
	// joins 1.0 (matching the comparison semantics of the same predicate
	// as a filter).
	floatSchema := col.NewSchema(
		col.Field{Name: "k", Type: col.FLOAT64},
		col.Field{Name: "v", Type: col.STRING},
	)
	fk := col.NewVector(col.FLOAT64, 3)
	copy(fk.Floats, []float64{2.0, 3.5, 4.0})
	fv := col.NewVector(col.STRING, 3)
	copy(fv.Strs, []string{"X", "Y", "Z"})

	node := &plan.JoinNode{
		Kind:      plan.JoinInner,
		Left:      fakeNode(kvSchema),
		Right:     fakeNode(floatSchema),
		LeftKeys:  []plan.BoundExpr{colRef(0, col.INT64)},
		RightKeys: []plan.BoundExpr{colRef(0, col.FLOAT64)},
	}
	left := sliceSource(kvSchema, kvBatch([]int64{1, 2, 4}, []string{"a", "b", "c"}))
	right := sliceSource(floatSchema, col.NewBatch(fk, fv))
	out, err := Collect(must(NewHashJoinOp(node, left, right)))
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(out)
	if len(rows) != 2 {
		t.Fatalf("mixed-type join rows = %v, want keys 2 and 4 to match", rows)
	}
}

func TestLeftJoinResidualOnlyEmptyBuild(t *testing.T) {
	// Keyless LEFT JOIN (residual-only ON) against an empty build side
	// must NULL-extend every probe row, not drop them.
	node := &plan.JoinNode{
		Kind:     plan.JoinLeft,
		Left:     fakeNode(kvSchema),
		Right:    fakeNode(kvSchema),
		Residual: &plan.BBinary{Op: "<", L: colRef(0, col.INT64), R: colRef(2, col.INT64), Ty: col.BOOL},
	}
	left := sliceSource(kvSchema, kvBatch([]int64{1, 2}, []string{"a", "b"}))
	right := sliceSource(kvSchema) // empty build
	out, err := Collect(must(NewHashJoinOp(node, left, right)))
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 {
		t.Fatalf("rows = %v, want both left rows NULL-extended", rowsOf(out))
	}
	for i := 0; i < out.N; i++ {
		if !out.Vecs[2].IsNull(i) || !out.Vecs[3].IsNull(i) {
			t.Fatalf("row %d right side not NULL: %v", i, out.Row(i))
		}
	}
}

func TestCrossJoin(t *testing.T) {
	node := &plan.JoinNode{
		Kind:  plan.JoinCross,
		Left:  fakeNode(kvSchema),
		Right: fakeNode(kvSchema),
	}
	left := sliceSource(kvSchema, kvBatch([]int64{1, 2}, []string{"a", "b"}))
	right := sliceSource(kvSchema, kvBatch([]int64{10, 20, 30}, []string{"x", "y", "z"}))
	out, err := Collect(must(NewHashJoinOp(node, left, right)))
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 6 {
		t.Fatalf("cross join rows = %d", out.N)
	}
}

func TestSortNullsOrdering(t *testing.T) {
	v := col.NewVector(col.INT64, 4)
	v.Ints = []int64{3, 1, 0, 2}
	v.SetNull(2)
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64, Nullable: true})
	src := sliceSource(schema, col.NewBatch(v))
	node := &plan.SortNode{Child: fakeNode(schema), Keys: []plan.SortKey{{Ordinal: 0}}}
	out, err := Collect(NewSortOp(node, src))
	if err != nil {
		t.Fatal(err)
	}
	// ASC: 1,2,3,NULL (nulls last)
	if out.Vecs[0].Ints[0] != 1 || out.Vecs[0].Ints[1] != 2 || out.Vecs[0].Ints[2] != 3 || !out.Vecs[0].IsNull(3) {
		t.Fatalf("asc order = %v nulls=%v", out.Vecs[0].Ints, out.Vecs[0].Valid)
	}

	// DESC: NULL first.
	v2 := col.NewVector(col.INT64, 4)
	v2.Ints = []int64{3, 1, 0, 2}
	v2.SetNull(2)
	src2 := sliceSource(schema, col.NewBatch(v2))
	node2 := &plan.SortNode{Child: fakeNode(schema), Keys: []plan.SortKey{{Ordinal: 0, Desc: true}}}
	out, err = Collect(NewSortOp(node2, src2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Vecs[0].IsNull(0) || out.Vecs[0].Ints[1] != 3 || out.Vecs[0].Ints[3] != 1 {
		t.Fatalf("desc order = %v nulls=%v", out.Vecs[0].Ints, out.Vecs[0].Valid)
	}
}

func TestLimitAcrossBatches(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64})
	b1 := col.NewBatch(intsVec(1, 2, 3))
	b2 := col.NewBatch(intsVec(4, 5, 6))
	b3 := col.NewBatch(intsVec(7, 8, 9))
	node := &plan.LimitNode{Child: fakeNode(schema), Limit: 4, Offset: 2}
	out, err := Collect(NewLimitOp(node, sliceSource(schema, b1, b2, b3)))
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 4 || out.Vecs[0].Ints[0] != 3 || out.Vecs[0].Ints[3] != 6 {
		t.Fatalf("limit/offset = %v", out.Vecs[0].Ints)
	}
}

func TestLimitZero(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64})
	node := &plan.LimitNode{Child: fakeNode(schema), Limit: 0}
	out, err := Collect(NewLimitOp(node, sliceSource(schema, col.NewBatch(intsVec(1, 2)))))
	if err != nil || out.N != 0 {
		t.Fatalf("limit 0 = %d rows, %v", out.N, err)
	}
}

func TestHashAggEmptyInputGlobal(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64})
	node := &plan.AggNode{
		Child: fakeNode(schema),
		Aggs: []plan.AggSpec{
			{Func: plan.AggCountStar, Name: "cnt", Ty: col.INT64},
			{Func: plan.AggSum, Arg: colRef(0, col.INT64), Name: "s", Ty: col.INT64},
			{Func: plan.AggMin, Arg: colRef(0, col.INT64), Name: "m", Ty: col.INT64},
		},
	}
	out, err := Collect(must(NewHashAggOp(node, sliceSource(schema))))
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 1 {
		t.Fatalf("global agg over empty input: %d rows", out.N)
	}
	if out.Vecs[0].Ints[0] != 0 {
		t.Fatalf("COUNT(*) = %v", out.Vecs[0].Ints)
	}
	if !out.Vecs[1].IsNull(0) || !out.Vecs[2].IsNull(0) {
		t.Fatalf("SUM/MIN over empty should be NULL")
	}
}

func TestHashAggGroupedEmptyInput(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64})
	node := &plan.AggNode{
		Child:      fakeNode(schema),
		GroupBy:    []plan.BoundExpr{colRef(0, col.INT64)},
		GroupNames: []string{"k"},
		Aggs:       []plan.AggSpec{{Func: plan.AggCountStar, Name: "cnt", Ty: col.INT64}},
	}
	out, err := Collect(must(NewHashAggOp(node, sliceSource(schema))))
	if err != nil || out.N != 0 {
		t.Fatalf("grouped agg over empty input: %d rows, %v", out.N, err)
	}
}

func TestHashAggNullGroupKey(t *testing.T) {
	v := intsVec(1, 1, 0)
	v.SetNull(2)
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64, Nullable: true})
	node := &plan.AggNode{
		Child:      fakeNode(schema),
		GroupBy:    []plan.BoundExpr{colRef(0, col.INT64)},
		GroupNames: []string{"k"},
		Aggs:       []plan.AggSpec{{Func: plan.AggCountStar, Name: "cnt", Ty: col.INT64}},
	}
	out, err := Collect(must(NewHashAggOp(node, sliceSource(schema, col.NewBatch(v)))))
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 { // group 1 and the NULL group
		t.Fatalf("groups = %d: %v", out.N, rowsOf(out))
	}
}

func TestAggDistinctCountsUnique(t *testing.T) {
	v := intsVec(1, 1, 2, 2, 3)
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64})
	node := &plan.AggNode{
		Child: fakeNode(schema),
		Aggs: []plan.AggSpec{
			{Func: plan.AggCount, Arg: colRef(0, col.INT64), Distinct: true, Name: "d", Ty: col.INT64},
			{Func: plan.AggSum, Arg: colRef(0, col.INT64), Distinct: true, Name: "s", Ty: col.INT64},
		},
	}
	out, err := Collect(must(NewHashAggOp(node, sliceSource(schema, col.NewBatch(v)))))
	if err != nil {
		t.Fatal(err)
	}
	if out.Vecs[0].Ints[0] != 3 || out.Vecs[1].Ints[0] != 6 {
		t.Fatalf("distinct agg = %v / %v", out.Vecs[0].Ints, out.Vecs[1].Ints)
	}
}

// fakeNode provides a plan.Node with a fixed schema for operator tests.
func fakeNode(s *col.Schema) plan.Node { return &schemaNode{s} }

type schemaNode struct{ s *col.Schema }

func (n *schemaNode) Schema() *col.Schema   { return n.s }
func (n *schemaNode) Children() []plan.Node { return nil }
func (n *schemaNode) Label() string         { return "fake" }

func rowsOf(b *col.Batch) []string {
	var out []string
	for i := 0; i < b.N; i++ {
		row := b.Row(i)
		s := ""
		for j, v := range row {
			if j > 0 {
				s += "|"
			}
			s += v.String()
		}
		out = append(out, s)
	}
	return out
}
