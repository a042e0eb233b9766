//go:build poison

package exec

import (
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// TestJoinOutputPoisonedOnNext holds a join's output past the next Next:
// the operator refills the same vectors, and rows the new batch does not
// overwrite read poison, so a holder that keeps them without copying
// fails loudly.
func TestJoinOutputPoisonedOnNext(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64}, col.Field{Name: "v", Type: col.STRING})
	probe := sliceSource(schema,
		kvBatch([]int64{1, 2, 3, 4, 5, 6, 7}, []string{"a", "b", "c", "d", "e", "f", "g"}),
		kvBatch([]int64{1, 2}, []string{"h", "i"}))
	build := kvBatch([]int64{1, 2, 3, 4, 5, 6, 7}, []string{"x", "y", "z", "w", "v", "u", "t"})
	node := &plan.JoinNode{Kind: plan.JoinInner, Left: fakeNode(schema), Right: fakeNode(schema),
		LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
	op := must(hashJoin(node, probe, sliceSource(schema, build)))
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	first, err := op.Next()
	if err != nil || first.N != 7 {
		t.Fatalf("first Next = %v, %v", first, err)
	}
	held := first.Vecs[2].Ints[:first.N] // the build side's keys
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	poison := &col.Vector{Ints: make([]int64, 1)}
	col.Poison(poison)
	for r := 2; r < len(held); r++ {
		if held[r] != poison.Ints[0] {
			t.Fatalf("held row %d = %d after the next Next, want poison", r, held[r])
		}
	}
}
