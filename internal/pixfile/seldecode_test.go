package pixfile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/col"
)

// buildSelFixture writes one file whose columns cover every chunk encoding:
// an RLE-friendly int column (long runs), a DELTA column (sequence), a
// near-random PLAIN int column, floats, bools, a DICT string column (low
// cardinality) and a PLAIN string column (unique values). With nulls, each
// nullable column carries a validity bitmap too.
func buildSelFixture(t testing.TB, rows int, withNulls bool) (*File, *col.Batch) {
	t.Helper()
	rle := col.NewVector(col.INT64, rows)
	delta := col.NewVector(col.INT64, rows)
	plain := col.NewVector(col.INT64, rows)
	fl := col.NewVector(col.FLOAT64, rows)
	bo := col.NewVector(col.BOOL, rows)
	dict := col.NewVector(col.STRING, rows)
	ps := col.NewVector(col.STRING, rows)
	words := []string{"red", "green", "blue"}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < rows; i++ {
		rle.Ints[i] = int64(i / 50)
		delta.Ints[i] = int64(i * 3)
		plain.Ints[i] = int64(uint32(i*2654435761) >> 3)
		fl.Floats[i] = float64(i) / 7
		bo.Bools[i] = i%3 == 0
		dict.Strs[i] = words[i%len(words)]
		ps.Strs[i] = fmt.Sprintf("row-%d-%d", i, r.Intn(1000))
		if withNulls && i%4 == 1 {
			for _, v := range []*col.Vector{rle, delta, plain, fl, bo, dict, ps} {
				v.SetNull(i)
			}
		}
	}
	batch := col.NewBatch(rle, delta, plain, fl, bo, dict, ps)
	schema := col.NewSchema(
		col.Field{Name: "rle", Type: col.INT64, Nullable: withNulls},
		col.Field{Name: "delta", Type: col.INT64, Nullable: withNulls},
		col.Field{Name: "plain", Type: col.INT64, Nullable: withNulls},
		col.Field{Name: "fl", Type: col.FLOAT64, Nullable: withNulls},
		col.Field{Name: "bo", Type: col.BOOL, Nullable: withNulls},
		col.Field{Name: "dict", Type: col.STRING, Nullable: withNulls},
		col.Field{Name: "ps", Type: col.STRING, Nullable: withNulls},
	)
	w := NewWriter(schema, WriterOptions{RowGroupSize: rows})
	if err := w.Append(batch); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return f, batch
}

// selections returns the selection shapes the decoder must handle: single
// rows at the edges, sparse picks, dense runs, and everything.
func selections(n int, r *rand.Rand) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	sparse := []int{}
	for i := 0; i < n; i++ {
		if r.Intn(17) == 0 {
			sparse = append(sparse, i)
		}
	}
	if len(sparse) == 0 {
		sparse = []int{n / 2}
	}
	dense := []int{}
	for i := n / 4; i < n/2; i++ {
		dense = append(dense, i)
	}
	return [][]int{{0}, {n - 1}, {0, n - 1}, sparse, dense, all}
}

func TestSelDecodeMatchesGather(t *testing.T) {
	for _, withNulls := range []bool{false, true} {
		t.Run(fmt.Sprintf("nulls=%v", withNulls), func(t *testing.T) {
			const rows = 400
			f, _ := buildSelFixture(t, rows, withNulls)
			r := rand.New(rand.NewSource(7))
			for c := 0; c < f.Schema().Len(); c++ {
				// Verify the fixture exercises the intended encodings.
				if enc := f.RowGroup(0).Chunks[c].Encoding; c == 0 && !withNulls && enc != EncRLE {
					t.Errorf("col 0 encoded %s, want RLE", enc)
				}
				full, err := f.ReadColumnChunkVia(f.fetch, 0, c, nil)
				if err != nil {
					t.Fatalf("full decode col %d: %v", c, err)
				}
				for si, sel := range selections(rows, r) {
					got, err := f.ReadColumnChunkSelVia(f.fetch, 0, c, sel, nil)
					if err != nil {
						t.Fatalf("sel decode col %d sel %d: %v", c, si, err)
					}
					want := full.Gather(sel)
					if got.N != want.N {
						t.Fatalf("col %d sel %d: %d rows, want %d", c, si, got.N, want.N)
					}
					for o := 0; o < got.N; o++ {
						gv, wv := got.Value(o), want.Value(o)
						if gv.Null != wv.Null || (!gv.Null && !gv.Equal(wv)) {
							t.Fatalf("col %d sel %d row %d (src %d): got %v want %v",
								c, si, o, sel[o], gv, wv)
						}
					}
				}
			}
		})
	}
}

func TestSelDecodeDictEncodingUsed(t *testing.T) {
	f, _ := buildSelFixture(t, 300, false)
	if enc := f.RowGroup(0).Chunks[5].Encoding; enc != EncDict {
		t.Fatalf("dict column encoded %s, want DICT", enc)
	}
	if enc := f.RowGroup(0).Chunks[6].Encoding; enc != EncPlain {
		t.Fatalf("plain-string column encoded %s, want PLAIN", enc)
	}
}

func TestSelDecodeScratchReuse(t *testing.T) {
	f, _ := buildSelFixture(t, 200, true)
	scratch := &ChunkScratch{}
	for c := 0; c < f.Schema().Len(); c++ {
		full, err := f.ReadColumnChunkVia(f.fetch, 0, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Two decodes with different selections through one scratch: the
		// second must not corrupt semantics (the first's result is dead).
		if _, err := f.ReadColumnChunkSelVia(f.fetch, 0, c, []int{0, 1, 2, 3, 4, 5, 6, 7}, scratch); err != nil {
			t.Fatal(err)
		}
		sel := []int{10, 50, 199}
		got, err := f.ReadColumnChunkSelVia(f.fetch, 0, c, sel, scratch)
		if err != nil {
			t.Fatal(err)
		}
		want := full.Gather(sel)
		for o := 0; o < got.N; o++ {
			gv, wv := got.Value(o), want.Value(o)
			if gv.Null != wv.Null || (!gv.Null && !gv.Equal(wv)) {
				t.Fatalf("col %d row %d: got %v want %v", c, o, gv, wv)
			}
		}
		scratch.Detach()
	}
}

func TestSelDecodeRejectsBadSelection(t *testing.T) {
	f, _ := buildSelFixture(t, 100, false)
	for _, sel := range [][]int{{}, {-1}, {100}, {5, 100}} {
		if _, err := f.ReadColumnChunkSelVia(f.fetch, 0, 0, sel, nil); err == nil {
			t.Errorf("selection %v accepted", sel)
		}
	}
}
