package pixfile

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/col"
)

// boundaryFileSHA256 is the SHA-256 of the file TestWriterBatchBoundaries
// writes. It pins the format: NULL rows encode as the zero value whatever
// their source slot held, and a dictionary-coded column encodes its
// strings.
const boundaryFileSHA256 = "70e544ff226f82493f2cb597ba4dc45c9a868e08fe00daf8f9af97b558279d0c"

// boundaryBatch builds 23 rows of every column type. The INT64, FLOAT64,
// BOOL and plain STRING columns have NULL rows over non-zero garbage; the
// last column is dictionary-coded with NULL rows of their own.
func boundaryBatch() (*col.Schema, *col.Batch) {
	const n = 23
	schema := col.NewSchema(
		col.Field{Name: "i", Type: col.INT64, Nullable: true},
		col.Field{Name: "f", Type: col.FLOAT64, Nullable: true},
		col.Field{Name: "b", Type: col.BOOL, Nullable: true},
		col.Field{Name: "d", Type: col.DATE},
		col.Field{Name: "ts", Type: col.TIMESTAMP},
		col.Field{Name: "s", Type: col.STRING, Nullable: true},
		col.Field{Name: "ds", Type: col.STRING, Nullable: true},
	)
	i := col.NewVector(col.INT64, n)
	f := col.NewVector(col.FLOAT64, n)
	b := col.NewVector(col.BOOL, n)
	d := col.NewVector(col.DATE, n)
	ts := col.NewVector(col.TIMESTAMP, n)
	s := col.NewVector(col.STRING, n)
	ds := &col.Vector{Type: col.STRING, Dict: []string{"red", "green", "", "blue"}, Codes: make([]uint32, n), N: n}
	words := []string{"alpha", "", "gamma", "delta", "epsilon"}
	for r := 0; r < n; r++ {
		i.Ints[r] = int64(r*r) - 40
		f.Floats[r] = float64(r) / 3
		b.Bools[r] = r%3 != 0
		d.Ints[r] = int64(19000 + r)
		ts.Ints[r] = int64(r) * 1e9
		s.Strs[r] = words[r%len(words)]
		ds.Codes[r] = uint32(r*7) % 4
	}
	f.Floats[4], f.Floats[9] = math.NaN(), math.Copysign(0, -1)
	for _, r := range []int{2, 5, 11, 19} {
		i.SetNull(r)
		f.SetNull(r)
		f.Floats[r] = math.Inf(-1)
		b.SetNull(r)
		b.Bools[r] = true
		s.SetNull(r)
		s.Strs[r] = "garbage"
	}
	i.Ints[2], i.Ints[5] = math.MaxInt64, 77
	for _, r := range []int{0, 4, 5, 14} {
		ds.SetNull(r)
	}
	return schema, col.NewBatch(i, f, b, d, ts, s, ds)
}

// TestWriterBatchBoundaries writes the same rows as one batch, as one-row
// batches and as batches of 7, over row groups of 5: the three files are
// byte-identical, and match the pinned hash.
func TestWriterBatchBoundaries(t *testing.T) {
	schema, all := boundaryBatch()
	opts := WriterOptions{RowGroupSize: 5}
	split := func(size int) []*col.Batch {
		var parts []*col.Batch
		for from := 0; from < all.N; from += size {
			parts = append(parts, all.Slice(from, min(all.N, from+size)))
		}
		return parts
	}
	whole := writeFile(t, schema, []*col.Batch{all}, opts)
	for _, size := range []int{1, 7} {
		if got := writeFile(t, schema, split(size), opts); string(got) != string(whole) {
			t.Fatalf("batches of %d write a different file than one batch", size)
		}
	}
	sum := sha256.Sum256(whole)
	if got := hex.EncodeToString(sum[:]); got != boundaryFileSHA256 {
		t.Fatalf("file SHA-256 = %s, want %s", got, boundaryFileSHA256)
	}

	f, err := OpenBytes(whole)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRowGroups() != 5 || f.RowGroup(4).NumRows != 3 {
		t.Fatalf("row groups: %d, last of %d rows", f.NumRowGroups(), f.RowGroup(f.NumRowGroups()-1).NumRows)
	}
	back, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range all.Vecs {
		for r := 0; r < all.N; r++ {
			got, want := back.Vecs[c].Value(r), v.Value(r)
			if got.Null != want.Null || !got.Null && got.String() != want.String() {
				t.Fatalf("column %d row %d: read %v, wrote %v", c, r, got, want)
			}
		}
	}
}
