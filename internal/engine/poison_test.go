//go:build poison

package engine

import (
	"testing"

	"repro/internal/col"
)

// TestHandoffBatchPoisonedOnNextPull holds a merge stream's batch past the
// next pull: the stream recycles it, poisoned, so a merge-side holder
// that keeps it without copying reads garbage.
func TestHandoffBatchPoisonedOnNextPull(t *testing.T) {
	h := newHandoff()
	for _, vals := range [][]int64{{1, 2, 3}, {4, 5, 6}} {
		v := col.NewVector(col.INT64, len(vals))
		copy(v.Ints, vals)
		h.ch <- h.copyOf(col.NewBatch(v))
	}
	close(h.ch)
	first := h.next()
	held := first.Vecs[0].Ints
	if held[0] != 1 {
		t.Fatalf("first batch = %v", held)
	}
	if second := h.next(); second == nil || second.Vecs[0].Ints[0] != 4 {
		t.Fatalf("second batch = %v", second)
	}
	poison := &col.Vector{Ints: make([]int64, 1)}
	col.Poison(poison)
	for r, x := range held {
		if x != poison.Ints[0] {
			t.Fatalf("held row %d = %d after the next pull, want poison", r, x)
		}
	}
	if h.next() != nil {
		t.Fatal("stream did not end")
	}
}
