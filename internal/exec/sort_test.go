package exec

import (
	"fmt"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

func TestSortNullsOrdering(t *testing.T) {
	v := col.NewVector(col.INT64, 4)
	v.Ints = []int64{3, 1, 0, 2}
	v.SetNull(2)
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64, Nullable: true})
	src := sliceSource(schema, col.NewBatch(v))
	out, err := Collect(NewSortOp([]plan.SortKey{{Ordinal: 0}}, -1, src))
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
	out, err = Collect(NewSortOp([]plan.SortKey{{Ordinal: 0, Desc: true}}, -1, src2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Vecs[0].IsNull(0) || out.Vecs[0].Ints[1] != 3 || out.Vecs[0].Ints[3] != 1 {
		t.Fatalf("desc order = %v nulls=%v", out.Vecs[0].Ints, out.Vecs[0].Valid)
	}
}

// topnBatchRows is the batch size of topnInput.
const topnBatchRows = 7

// topnInput builds a deterministic pseudo-random input with heavy key ties
// and NULLs, split across batches of topnBatchRows: an INT64 key k, a
// STRING key s that is dictionary-coded in every other batch, and a unique
// tag that exposes arrival order.
func topnInput(rows int) (*col.Schema, []*col.Batch) {
	schema := col.NewSchema(
		col.Field{Name: "k", Type: col.INT64, Nullable: true},
		col.Field{Name: "s", Type: col.STRING, Nullable: true},
		col.Field{Name: "tag", Type: col.STRING},
	)
	dict := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	var batches []*col.Batch
	seed := uint64(42)
	for start := 0; start < rows; start += topnBatchRows {
		n := min(rows-start, topnBatchRows)
		k := col.NewVector(col.INT64, n)
		s := col.NewVector(col.STRING, n)
		coded := len(batches)%2 == 1
		if coded {
			s.Strs, s.Dict, s.Codes = nil, dict, make([]uint32, n)
		}
		tag := col.NewVector(col.STRING, n)
		for i := 0; i < n; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			k.Ints[i] = int64(seed>>33) % 10
			code := uint32(seed>>40) % uint32(len(dict))
			if coded {
				s.Codes[i] = code
			} else {
				s.Strs[i] = dict[code]
			}
			tag.Strs[i] = fmt.Sprintf("row-%04d", start+i)
			if seed%11 == 0 {
				k.SetNull(i)
			}
			if seed%13 == 0 {
				s.SetNull(i)
			}
		}
		batches = append(batches, col.NewBatch(k, s, tag))
	}
	return schema, batches
}

// TestTopNMatchesSortLimit checks the defining property: a sort bounded to
// N equals the unbounded sort followed by LIMIT N — including tie-breaking
// by arrival order and NULL placement — for INT64 and dictionary-coded
// STRING keys, ascending, descending and combined, and for N that leave no
// row, put the 2·N cut inside a batch or on a batch boundary, cut once or
// many times, or never cut.
func TestTopNMatchesSortLimit(t *testing.T) {
	const rows = 53
	orders := [][]plan.SortKey{
		{{Ordinal: 0}},
		{{Ordinal: 0, Desc: true}},
		{{Ordinal: 1}},
		{{Ordinal: 1, Desc: true}},
		{{Ordinal: 1}, {Ordinal: 0, Desc: true}},
	}
	ns := []int64{0, 1, 3, 5, topnBatchRows, 10, 2 * topnBatchRows, rows/2 - 1, rows / 2, rows/2 + 1, rows, rows + 5}
	for _, keys := range orders {
		for _, n := range ns {
			schema, batches := topnInput(rows)
			limitNode := &plan.LimitNode{Child: fakeNode(schema), Limit: n}
			ref, err := Collect(NewLimitOp(limitNode, NewSortOp(keys, -1, sliceSource(schema, batches...))))
			if err != nil {
				t.Fatal(err)
			}

			schema2, batches2 := topnInput(rows)
			got, err := Collect(NewSortOp(keys, n, sliceSource(schema2, batches2...)))
			if err != nil {
				t.Fatal(err)
			}

			refRows, gotRows := rowsOf(ref), rowsOf(got)
			if len(refRows) != len(gotRows) {
				t.Fatalf("keys=%v N=%d: %d rows vs sort+limit %d", keys, n, len(gotRows), len(refRows))
			}
			for i := range refRows {
				if refRows[i] != gotRows[i] {
					t.Fatalf("keys=%v N=%d row %d: bounded %q vs sort+limit %q", keys, n, i, gotRows[i], refRows[i])
				}
			}
		}
	}
}

// TestTopNStableTies pins the tie rule directly: with every key equal, the
// survivors are the first N arrivals, in arrival order, and once the sort
// has cut to N rows an arrival whose key only equals the N-th is not even
// held.
func TestTopNStableTies(t *testing.T) {
	schema := col.NewSchema(
		col.Field{Name: "k", Type: col.INT64},
		col.Field{Name: "tag", Type: col.STRING},
	)
	const rows = 10
	k := col.NewVector(col.INT64, rows)
	s := col.NewVector(col.STRING, rows)
	for i := range k.Ints {
		k.Ints[i] = 7
		s.Strs[i] = fmt.Sprintf("arrival-%d", i)
	}
	keys := []plan.SortKey{{Ordinal: 0}}
	out, err := Collect(NewSortOp(keys, 3, sliceSource(schema, col.NewBatch(k, s))))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"7|arrival-0", "7|arrival-1", "7|arrival-2"}
	got := rowsOf(out)
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order: got %v, want %v", got, want)
		}
	}

	op := NewSortOp(keys, 3, nil)
	op.held = col.EmptyBatch(schema)
	op.add(col.NewBatch(k, s))
	if !op.cut || op.held.N != 3 {
		t.Fatalf("after %d equal rows: cut=%v, %d rows held, want 3", rows, op.cut, op.held.N)
	}
}

// TestTopNMultiKey exercises a two-key order (second key descending).
func TestTopNMultiKey(t *testing.T) {
	schema := col.NewSchema(
		col.Field{Name: "a", Type: col.INT64},
		col.Field{Name: "b", Type: col.STRING},
	)
	a := col.NewVector(col.INT64, 5)
	b := col.NewVector(col.STRING, 5)
	copy(a.Ints, []int64{2, 1, 2, 1, 3})
	copy(b.Strs, []string{"x", "p", "z", "q", "m"})
	keys := []plan.SortKey{{Ordinal: 0}, {Ordinal: 1, Desc: true}}
	out, err := Collect(NewSortOp(keys, 3, sliceSource(schema, col.NewBatch(a, b))))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1|q", "1|p", "2|z"}
	got := rowsOf(out)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
