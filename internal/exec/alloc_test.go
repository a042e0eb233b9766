package exec

import (
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// repeatOp returns the same batch on every Next, forever.
type repeatOp struct {
	schema *col.Schema
	b      *col.Batch
}

func (r *repeatOp) Schema() *col.Schema       { return r.schema }
func (r *repeatOp) Open() error               { return nil }
func (r *repeatOp) Next() (*col.Batch, error) { return r.b, nil }
func (r *repeatOp) Close() error              { return nil }

// TestJoinNextAllocatesNothing: once warm, an inner join's Next over a
// repeated probe batch writes into the operator's own output batch and
// allocates nothing.
func TestJoinNextAllocatesNothing(t *testing.T) {
	probe := kvBatch([]int64{1, 2, 3, 4, 2, 9, 1}, []string{"a", "b", "c", "d", "e", "f", "g"})
	probe.Vecs[1].SetNull(3)
	build := kvBatch([]int64{1, 2, 2, 4, 5}, []string{"x", "y", "z", "w", "v"})
	node := &plan.JoinNode{Kind: plan.JoinInner, Left: fakeNode(probeSchema), Right: fakeNode(probeSchema),
		LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64}, col.Field{Name: "v", Type: col.STRING, Nullable: true})
	op := must(NewHashJoinOp(node, &repeatOp{schema, probe}, sliceSource(schema, build)))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	out, err := op.Next()
	if err != nil || out.N != 7 {
		t.Fatalf("warm-up Next = %v rows, %v", out, err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := op.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("HashJoinOp.Next allocates %.1f times per batch, want 0", n)
	}
}

// TestAggFoldAllocatesNothing: once a batch's groups exist, folding the
// batch again — typed keys, a dictionary-coded key and argument, every
// aggregate function — allocates nothing.
func TestAggFoldAllocatesNothing(t *testing.T) {
	b := stateBatch()
	fields := []col.Field{{Name: "g", Type: col.INT64}}
	for _, ty := range stateTypes {
		fields = append(fields, col.Field{Name: "c", Type: ty, Nullable: true})
	}
	schema := col.NewSchema(fields...)
	dictCol := len(stateTypes)
	for _, keys := range [][]plan.BoundExpr{
		{colRef(0, col.INT64)},
		{colRef(dictCol, col.STRING)},
		{colRef(0, col.INT64), colRef(dictCol-1, col.STRING)},
	} {
		node := &plan.AggNode{Child: fakeNode(schema), GroupBy: keys, GroupNames: make([]string, len(keys)), Aggs: stateAggs()}
		op := must(NewHashAggOp(node, sliceSource(schema)))
		op.reset()
		if err := op.add(b); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := op.add(b); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("GROUP BY %v: a fold with no new group allocates %.1f times, want 0", keys, n)
		}
	}
}
