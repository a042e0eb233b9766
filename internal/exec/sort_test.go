package exec

import (
	"fmt"
	"math"
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

// topnFloats are the values of topnInput's FLOAT64 key: NaN, which
// compares equal to everything, both infinities, both zeros, which tie,
// and some heavily repeated finite values.
var topnFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 3, 3, 7.5, 7.5, 7.5}

// topnInput builds a deterministic pseudo-random input with heavy key ties
// and NULLs, split across batches of topnBatchRows: an INT64 key k, a
// STRING key s that is dictionary-coded in every other batch, a unique
// tag that exposes arrival order, a FLOAT64 key f drawn from topnFloats, a
// DATE key d, and a FLOAT64 key z that is equal on every row.
func topnInput(rows int) (*col.Schema, []*col.Batch) {
	schema := col.NewSchema(
		col.Field{Name: "k", Type: col.INT64, Nullable: true},
		col.Field{Name: "s", Type: col.STRING, Nullable: true},
		col.Field{Name: "tag", Type: col.STRING},
		col.Field{Name: "f", Type: col.FLOAT64, Nullable: true},
		col.Field{Name: "d", Type: col.DATE, Nullable: true},
		col.Field{Name: "z", Type: col.FLOAT64},
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
		f, d, z := col.NewVector(col.FLOAT64, n), col.NewVector(col.DATE, n), col.NewVector(col.FLOAT64, n)
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
			f.Floats[i] = topnFloats[(seed>>20)%uint64(len(topnFloats))]
			d.Ints[i] = 19000 + int64(seed>>50)%6
			z.Floats[i] = 2.5
			if seed%11 == 0 {
				k.SetNull(i)
			}
			if seed%13 == 0 {
				s.SetNull(i)
			}
			if seed%7 == 0 {
				f.SetNull(i)
			}
			if seed%5 == 0 {
				d.SetNull(i)
			}
		}
		batches = append(batches, col.NewBatch(k, s, tag, f, d, z))
	}
	return schema, batches
}

// TestTopNMatchesSortLimit checks the defining property: a sort bounded to
// N equals the unbounded sort followed by LIMIT N — including tie-breaking
// by arrival order and NULL and NaN placement — for INT64, DATE, FLOAT64
// and dictionary-coded STRING keys, ascending, descending and combined,
// led by a key that ties on every row, and for N that leave no row, put
// the 2·N cut inside a batch or on a batch boundary, cut once or many
// times, or never cut. With an OFFSET it runs in the binder's shape: a
// LIMIT over a sort bounded to LIMIT + OFFSET.
func TestTopNMatchesSortLimit(t *testing.T) {
	const rows = 53
	orders := [][]plan.SortKey{
		{{Ordinal: 0}},
		{{Ordinal: 0, Desc: true}},
		{{Ordinal: 1}},
		{{Ordinal: 1, Desc: true}},
		{{Ordinal: 1}, {Ordinal: 0, Desc: true}},
		{{Ordinal: 3}},
		{{Ordinal: 3, Desc: true}},
		{{Ordinal: 3}, {Ordinal: 0}},
		{{Ordinal: 3, Desc: true}, {Ordinal: 0, Desc: true}},
		{{Ordinal: 4}},
		{{Ordinal: 4, Desc: true}, {Ordinal: 1}},
		{{Ordinal: 5}, {Ordinal: 3, Desc: true}, {Ordinal: 4}},
		{{Ordinal: 5, Desc: true}, {Ordinal: 0}},
	}
	ns := []int64{0, 1, 3, 5, topnBatchRows, 10, 2 * topnBatchRows, rows/2 - 1, rows / 2, rows/2 + 1, rows, rows + 5}
	for _, keys := range orders {
		for _, n := range ns {
			for _, offset := range []int64{0, 2} {
				schema, batches := topnInput(rows)
				limitNode := &plan.LimitNode{Child: fakeNode(schema), Limit: n, Offset: offset}
				ref, err := Collect(NewLimitOp(limitNode, NewSortOp(keys, -1, sliceSource(schema, batches...))))
				if err != nil {
					t.Fatal(err)
				}

				schema2, batches2 := topnInput(rows)
				var got *col.Batch
				if offset == 0 {
					got, err = Collect(NewSortOp(keys, n, sliceSource(schema2, batches2...)))
				} else {
					got, err = Collect(NewLimitOp(limitNode, NewSortOp(keys, n+offset, sliceSource(schema2, batches2...))))
				}
				if err != nil {
					t.Fatal(err)
				}

				refRows, gotRows := rowsOf(ref), rowsOf(got)
				if len(refRows) != len(gotRows) {
					t.Fatalf("keys=%v N=%d OFFSET %d: %d rows vs sort+limit %d", keys, n, offset, len(gotRows), len(refRows))
				}
				for i := range refRows {
					if refRows[i] != gotRows[i] {
						t.Fatalf("keys=%v N=%d OFFSET %d row %d: bounded %q vs sort+limit %q", keys, n, offset, i, gotRows[i], refRows[i])
					}
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

// fuzzFloats are the FLOAT64 keys FuzzTopNMatchesSortLimit draws from: two
// NaNs with different payloads, both infinities, both zeros, repeats and
// extremes. A draw past the end is a NULL.
var fuzzFloats = []float64{math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, 1, -1, 2.5, 2.5, 1e300, -1e300, 0.5, 3, 3}

// FuzzTopNMatchesSortLimit checks a bounded sort against the unbounded
// sort followed by LIMIT on fuzzed input: every three bytes are a row (a
// FLOAT64 key, an INT64 key, and whether the row ends its batch), so
// batches come in every size; order picks which key leads and each key's
// direction, and limit is the bound.
func FuzzTopNMatchesSortLimit(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 2, 1, 14, 0x80, 0, 15, 7, 0, 2, 9, 1, 0, 3, 0, 4, 3, 1, 5, 3, 0}, uint8(2), uint8(0))
	f.Add([]byte{15, 1, 0, 15, 2, 0, 15, 3, 1, 0, 4, 0, 1, 5, 1, 15, 6, 0, 0, 7, 0, 9, 8, 1}, uint8(3), uint8(2))
	f.Add([]byte{8, 0x80, 1, 9, 0x80, 0, 8, 3, 0, 9, 0x7f, 1, 4, 0x81, 0, 5, 0, 1, 8, 0x80, 0}, uint8(1), uint8(7))
	schema := col.NewSchema(
		col.Field{Name: "f", Type: col.FLOAT64, Nullable: true},
		col.Field{Name: "k", Type: col.INT64, Nullable: true},
		col.Field{Name: "tag", Type: col.INT64},
	)
	f.Fuzz(func(t *testing.T, data []byte, limit, order uint8) {
		var batches []*col.Batch
		var rows [][3]byte
		flush := func() {
			fv, kv, tv := col.NewVector(col.FLOAT64, len(rows)), col.NewVector(col.INT64, len(rows)), col.NewVector(col.INT64, len(rows))
			for i, r := range rows {
				if x := int(r[0] % 16); x < len(fuzzFloats) {
					fv.Floats[i] = fuzzFloats[x]
				} else {
					fv.SetNull(i)
				}
				if kv.Ints[i] = int64(int8(r[1])); r[1] == 0x80 {
					kv.SetNull(i)
				}
				tv.Ints[i] = int64(len(batches)<<16 | i)
			}
			batches, rows = append(batches, col.NewBatch(fv, kv, tv)), rows[:0]
		}
		for i := 0; i+2 < len(data); i += 3 {
			if rows = append(rows, [3]byte(data[i:i+3])); data[i+2]&1 == 1 {
				flush()
			}
		}
		if len(rows) > 0 {
			flush()
		}
		lead, next := 0, 1
		if order&1 == 1 {
			lead, next = 1, 0
		}
		keys := []plan.SortKey{{Ordinal: lead, Desc: order&2 != 0}, {Ordinal: next, Desc: order&4 != 0}}
		n := int64(limit % 32)
		ref, err := Collect(NewLimitOp(&plan.LimitNode{Child: fakeNode(schema), Limit: n}, NewSortOp(keys, -1, sliceSource(schema, batches...))))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(NewSortOp(keys, n, sliceSource(schema, batches...)))
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
	})
}
