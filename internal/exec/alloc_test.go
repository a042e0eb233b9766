package exec

import (
	"fmt"
	"runtime"
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
	op := must(hashJoin(node, &repeatOp{schema, probe}, sliceSource(schema, build)))
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

// TestJoinGroupByBuildStringAllocatesNothing: once a GROUP BY over a
// build-side string column has seen its groups, a further probe batch —
// the join's Next and the aggregate's fold of its output — allocates
// nothing: the codes share the build's dictionary, so the code-tuple table
// and the hashed dictionary outlive the batch.
func TestJoinGroupByBuildStringAllocatesNothing(t *testing.T) {
	probe := kvBatch([]int64{1, 2, 3, 4, 2, 9, 1}, []string{"a", "b", "c", "d", "e", "f", "g"})
	build := kvBatch([]int64{1, 2, 2, 4, 5}, []string{"x", "y", "x", "w", "v"})
	build.Vecs[1].SetNull(3)
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64}, col.Field{Name: "v", Type: col.STRING, Nullable: true})
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
		node := &plan.JoinNode{Kind: kind, Left: fakeNode(schema), Right: fakeNode(schema),
			LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
		join := must(hashJoin(node, &repeatOp{schema, probe}, sliceSource(schema, build)))
		if err := join.Open(); err != nil {
			t.Fatal(err)
		}
		joined := node.Schema()
		for _, keys := range [][]plan.BoundExpr{
			{colRef(3, col.STRING)},                        // the code-tuple table
			{colRef(3, col.STRING), colRef(0, col.INT64)},  // hashed rows
			{colRef(1, col.STRING), colRef(3, col.STRING)}, // both sides' strings
		} {
			agg := must(NewHashAggOp(&plan.AggNode{Child: fakeNode(joined), GroupBy: keys, GroupNames: make([]string, len(keys)),
				Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Ty: col.INT64, Name: "n"}, {Func: plan.AggSum, Arg: colRef(2, col.INT64), Ty: col.INT64, Name: "s"}}},
				join))
			agg.reset()
			step := func() {
				b, err := join.Next()
				if err != nil {
					t.Fatal(err)
				}
				if err := agg.add(b); err != nil {
					t.Fatal(err)
				}
			}
			step()
			if v := join.out.Vecs[3]; v.Codes == nil {
				t.Fatalf("%v join: the build's string column reaches the aggregate uncoded", kind)
			}
			if n := testing.AllocsPerRun(50, step); n != 0 {
				t.Fatalf("%v join, GROUP BY %v: a probe batch with no new group allocates %.1f times, want 0", kind, keys, n)
			}
		}
		join.Close()
	}
}

// newGroupAllocs is the allocations per grouped add of a batch that brings
// k new string groups, averaged over batches of fresh keys into one
// growing table.
func newGroupAllocs(t *testing.T, k int) float64 {
	const runs = 100
	schema := col.NewSchema(col.Field{Name: "g", Type: col.STRING}, col.Field{Name: "v", Type: col.INT64})
	node := &plan.AggNode{Child: fakeNode(schema), GroupBy: []plan.BoundExpr{colRef(0, col.STRING)}, GroupNames: []string{"g"},
		Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Ty: col.INT64, Name: "n"}, {Func: plan.AggSum, Arg: colRef(1, col.INT64), Ty: col.INT64, Name: "s"}}}
	op := must(NewHashAggOp(node, sliceSource(schema)))
	op.reset()
	batches := make([]*col.Batch, runs+1) // AllocsPerRun adds one warm-up run
	for i := range batches {
		g, v := col.NewVector(col.STRING, k), col.NewVector(col.INT64, k)
		for r := 0; r < k; r++ {
			g.Strs[r] = fmt.Sprintf("group-%d-%d", i, r)
			v.Ints[r] = int64(r)
		}
		batches[i] = col.NewBatch(g, v)
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		if err := op.add(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestAggNewGroupAllocationsFlat: a batch's new groups store their keys in
// one gather and one append per column, their strings in one fresh blob, so
// the allocations of a batch do not grow with the groups it adds (beyond
// the amortized growth of the table itself).
func TestAggNewGroupAllocationsFlat(t *testing.T) {
	few, many := newGroupAllocs(t, 16), newGroupAllocs(t, 256)
	t.Logf("allocations per batch: %.0f with 16 new groups, %.0f with 256", few, many)
	if many > few+2 {
		t.Fatalf("a batch of 16 new groups allocates %.0f times, of 256 new groups %.0f times", few, many)
	}
}

// TestTopNAddAfterCutAllocatesNothing: once a bounded sort has cut, a
// batch none of whose rows enters the top N goes through the typed pass
// and the row loop without allocating.
func TestTopNAddAfterCutAllocatesNothing(t *testing.T) {
	schema, batches := topnFloatBatches(2 * 4096)
	op := NewSortOp(topnFloatKeys, 11, nil)
	op.held = col.EmptyBatch(schema)
	op.add(batches[0])
	op.add(batches[1])
	if !op.cut {
		t.Fatal("no cut after two batches")
	}
	if n := testing.AllocsPerRun(50, func() { op.add(batches[1]) }); n != 0 {
		t.Fatalf("SortOp.add after the cut allocates %.1f times per batch, want 0", n)
	}
}

// firstNextAllocs returns the fewest allocations of a fresh join's first
// Next, over five fresh joins, over one probe batch of n rows, each
// matching one of 64 build rows. The fewest discounts an allocation of the
// runtime's own that a single count can catch.
func firstNextAllocs(t *testing.T, kind plan.JoinKind, residual plan.BoundExpr, n int) uint64 {
	fewest := ^uint64(0)
	for range 5 {
		fewest = min(fewest, firstNextAllocsOnce(t, kind, residual, n))
	}
	return fewest
}

func firstNextAllocsOnce(t *testing.T, kind plan.JoinKind, residual plan.BoundExpr, n int) uint64 {
	keys, vals := make([]int64, n), make([]string, n)
	for i := range keys {
		keys[i], vals[i] = int64(i%64), "p"
	}
	bkeys, bvals := make([]int64, 64), make([]string, 64)
	for i := range bkeys {
		bkeys[i], bvals[i] = int64(i), "b"
	}
	node := &plan.JoinNode{Kind: kind, Left: fakeNode(kvSchema), Right: fakeNode(kvSchema),
		LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)},
		Residual: residual}
	op := must(hashJoin(node, sliceSource(kvSchema, kvBatch(keys, vals)), sliceSource(kvSchema, kvBatch(bkeys, bvals))))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := op.Next()
	runtime.ReadMemStats(&after)
	if err != nil || out == nil || out.N != n {
		t.Fatalf("first Next = %v, %v; want %d rows", out, err, n)
	}
	return after.Mallocs - before.Mallocs
}

// TestJoinIndexScratchGrowsOnce: a fresh join grows its row-index scratch
// to its first probe batch in one step, not append by append, so that
// batch allocates as often at 4096 rows as at 64 — for an inner join's
// match indexes and a LEFT residual's output indexes alike.
func TestJoinIndexScratchGrowsOnce(t *testing.T) {
	never := &plan.BBinary{Op: "<", L: colRef(0, col.INT64), R: colRef(2, col.INT64), Ty: col.BOOL}
	for _, c := range []struct {
		name     string
		kind     plan.JoinKind
		residual plan.BoundExpr
	}{
		{"inner", plan.JoinInner, nil},
		{"left-residual", plan.JoinLeft, never},
	} {
		few, many := firstNextAllocs(t, c.kind, c.residual, 64), firstNextAllocs(t, c.kind, c.residual, 4096)
		t.Logf("%s: %d allocations at 64 rows, %d at 4096", c.name, few, many)
		if many > few {
			t.Errorf("%s: a fresh join's first batch allocates %d times at 64 rows, %d at 4096", c.name, few, many)
		}
	}
}
