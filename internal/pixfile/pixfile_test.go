package pixfile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/col"
)

func testSchema() *col.Schema {
	return col.NewSchema(
		col.Field{Name: "id", Type: col.INT64},
		col.Field{Name: "price", Type: col.FLOAT64},
		col.Field{Name: "name", Type: col.STRING, Nullable: true},
		col.Field{Name: "flag", Type: col.BOOL},
		col.Field{Name: "day", Type: col.DATE},
	)
}

func testBatch(n int, seed int64) *col.Batch {
	rng := rand.New(rand.NewSource(seed))
	id := col.NewVector(col.INT64, n)
	price := col.NewVector(col.FLOAT64, n)
	name := col.NewVector(col.STRING, n)
	flag := col.NewVector(col.BOOL, n)
	day := col.NewVector(col.DATE, n)
	names := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		id.Ints[i] = int64(i)
		price.Floats[i] = rng.Float64() * 100
		name.Strs[i] = names[rng.Intn(len(names))]
		flag.Bools[i] = rng.Intn(2) == 0
		day.Ints[i] = int64(10000 + i%365)
		if i%7 == 3 {
			name.SetNull(i)
		}
	}
	return col.NewBatch(id, price, name, flag, day)
}

func writeFile(t *testing.T, schema *col.Schema, batches []*col.Batch, opts WriterOptions) []byte {
	t.Helper()
	w := NewWriter(schema, opts)
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return data
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, comp := range []Compression{CompNone, CompFlate} {
		schema := testSchema()
		in := testBatch(1000, 42)
		data := writeFile(t, schema, []*col.Batch{in}, WriterOptions{RowGroupSize: 300, Compression: comp})
		f, err := OpenBytes(data)
		if err != nil {
			t.Fatalf("comp=%d OpenBytes: %v", comp, err)
		}
		if f.NumRows() != 1000 {
			t.Fatalf("NumRows = %d", f.NumRows())
		}
		if f.NumRowGroups() != 4 { // 300+300+300+100
			t.Fatalf("NumRowGroups = %d", f.NumRowGroups())
		}
		if !f.Schema().Equal(schema) {
			t.Fatalf("schema mismatch: %v vs %v", f.Schema(), schema)
		}
		out, err := f.ReadAll()
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		if out.N != in.N {
			t.Fatalf("rows %d != %d", out.N, in.N)
		}
		for c := range in.Vecs {
			for r := 0; r < in.N; r++ {
				want, got := in.Vecs[c].Value(r), out.Vecs[c].Value(r)
				if !want.Equal(got) {
					t.Fatalf("comp=%d col %d row %d: got %v want %v", comp, c, r, got, want)
				}
			}
		}
	}
}

func TestProjectionReadsOnlyRequestedChunks(t *testing.T) {
	schema := testSchema()
	data := writeFile(t, schema, []*col.Batch{testBatch(500, 7)}, WriterOptions{RowGroupSize: 500})
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	before := f.BytesRead()
	b, err := f.ReadColumns(0, []int{0}) // only "id"
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 500 || len(b.Vecs) != 1 || b.Vecs[0].Type != col.INT64 {
		t.Fatalf("projected batch wrong: %+v", b)
	}
	got := f.BytesRead() - before
	want := f.RowGroup(0).Chunks[0].Length
	if got != want {
		t.Fatalf("projection read %d bytes, want exactly chunk length %d", got, want)
	}
}

func TestEncodingSelection(t *testing.T) {
	// Constant column should pick RLE; sequential should pick DELTA.
	n := 4096
	constant := col.NewVector(col.INT64, n)
	seq := col.NewVector(col.INT64, n)
	for i := 0; i < n; i++ {
		constant.Ints[i] = 99
		seq.Ints[i] = int64(i) * 1000
	}
	schema := col.NewSchema(
		col.Field{Name: "c", Type: col.INT64},
		col.Field{Name: "s", Type: col.INT64},
	)
	data := writeFile(t, schema, []*col.Batch{col.NewBatch(constant, seq)}, WriterOptions{})
	if fixedWidth := n * 2 * 8; len(data) >= fixedWidth {
		t.Errorf("file is %d bytes, not below the %d of fixed-width int64s", len(data), fixedWidth)
	}
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	rg := f.RowGroup(0)
	if rg.Chunks[0].Encoding != EncRLE {
		t.Errorf("constant column encoding = %s, want RLE", rg.Chunks[0].Encoding)
	}
	if rg.Chunks[1].Encoding != EncDelta {
		t.Errorf("sequential column encoding = %s, want DELTA", rg.Chunks[1].Encoding)
	}
	// And the data must still round-trip.
	out, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out.Vecs[0].Ints[i] != 99 || out.Vecs[1].Ints[i] != int64(i)*1000 {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestDictionaryEncodingChosen(t *testing.T) {
	n := 1000
	v := col.NewVector(col.STRING, n)
	for i := 0; i < n; i++ {
		v.Strs[i] = []string{"AIR", "RAIL", "SHIP"}[i%3]
	}
	schema := col.NewSchema(col.Field{Name: "mode", Type: col.STRING})
	data := writeFile(t, schema, []*col.Batch{col.NewBatch(v)}, WriterOptions{})
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if enc := f.RowGroup(0).Chunks[0].Encoding; enc != EncDict {
		t.Errorf("encoding = %s, want DICT", enc)
	}
	// High-cardinality strings should stay PLAIN.
	u := col.NewVector(col.STRING, n)
	for i := 0; i < n; i++ {
		u.Strs[i] = string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+(i/7)%26)) + string(rune('a'+(i/3)%26))
	}
	data2 := writeFile(t, schema, []*col.Batch{col.NewBatch(u)}, WriterOptions{})
	f2, err := OpenBytes(data2)
	if err != nil {
		t.Fatal(err)
	}
	if enc := f2.RowGroup(0).Chunks[0].Encoding; enc != EncPlain {
		t.Errorf("high-cardinality encoding = %s, want PLAIN", enc)
	}
}

func TestStatsAndPruning(t *testing.T) {
	// Two row groups: ids 0..99 and 100..199.
	schema := col.NewSchema(col.Field{Name: "id", Type: col.INT64})
	v := col.NewVector(col.INT64, 200)
	for i := range v.Ints {
		v.Ints[i] = int64(i)
	}
	data := writeFile(t, schema, []*col.Batch{col.NewBatch(v)}, WriterOptions{RowGroupSize: 100})
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	st0 := f.RowGroup(0).Chunks[0].Stats
	if !st0.HasMinMax || st0.Min.I != 0 || st0.Max.I != 99 {
		t.Fatalf("rg0 stats = %+v", st0)
	}

	cases := []struct {
		pred  ColPredicate
		want0 bool // prune rg0?
		want1 bool // prune rg1?
	}{
		{ColPredicate{0, CmpEQ, col.Int(150)}, true, false},
		{ColPredicate{0, CmpEQ, col.Int(50)}, false, true},
		{ColPredicate{0, CmpLT, col.Int(100)}, false, true},
		{ColPredicate{0, CmpLE, col.Int(99)}, false, true},
		{ColPredicate{0, CmpGT, col.Int(99)}, true, false},
		{ColPredicate{0, CmpGE, col.Int(100)}, true, false},
		{ColPredicate{0, CmpEQ, col.Int(500)}, true, true},
		{ColPredicate{0, CmpNE, col.Int(50)}, false, false},
	}
	for _, c := range cases {
		if got := f.PruneRowGroup(0, []ColPredicate{c.pred}); got != c.want0 {
			t.Errorf("prune rg0 with %+v = %v, want %v", c.pred, got, c.want0)
		}
		if got := f.PruneRowGroup(1, []ColPredicate{c.pred}); got != c.want1 {
			t.Errorf("prune rg1 with %+v = %v, want %v", c.pred, got, c.want1)
		}
	}
}

func TestPruneNeverDropsMatchingRows(t *testing.T) {
	// Property: for random data and a random EQ predicate, every row group
	// containing a matching row must survive pruning.
	f := func(seed int64, needle uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 400
		v := col.NewVector(col.INT64, n)
		for i := range v.Ints {
			v.Ints[i] = int64(rng.Intn(64))
		}
		schema := col.NewSchema(col.Field{Name: "x", Type: col.INT64})
		w := NewWriter(schema, WriterOptions{RowGroupSize: 64})
		if err := w.Append(col.NewBatch(v)); err != nil {
			return false
		}
		data, err := w.Finish()
		if err != nil {
			return false
		}
		file, err := OpenBytes(data)
		if err != nil {
			return false
		}
		target := int64(needle % 64)
		pred := []ColPredicate{{0, CmpEQ, col.Int(target)}}
		for g := 0; g < file.NumRowGroups(); g++ {
			pruned := file.PruneRowGroup(g, pred)
			if !pruned {
				continue
			}
			b, err := file.ReadColumns(g, []int{0})
			if err != nil {
				return false
			}
			for i := 0; i < b.N; i++ {
				if b.Vecs[0].Ints[i] == target {
					return false // pruned a group that had a match
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAllNullChunk(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "s", Type: col.STRING, Nullable: true})
	v := col.NewVector(col.STRING, 10)
	for i := 0; i < 10; i++ {
		v.SetNull(i)
	}
	data := writeFile(t, schema, []*col.Batch{col.NewBatch(v)}, WriterOptions{})
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	st := f.RowGroup(0).Chunks[0].Stats
	if st.HasMinMax || st.NullCount != 10 {
		t.Fatalf("all-null stats = %+v", st)
	}
	if !f.PruneRowGroup(0, []ColPredicate{{0, CmpEQ, col.Str("x")}}) {
		t.Errorf("all-null group not pruned for EQ")
	}
	out, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !out.Vecs[0].IsNull(i) {
			t.Fatalf("row %d not null", i)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "id", Type: col.INT64})
	v := col.NewVector(col.INT64, 100)
	for i := range v.Ints {
		v.Ints[i] = int64(i)
	}
	data := writeFile(t, schema, []*col.Batch{col.NewBatch(v)}, WriterOptions{})
	// Flip a byte inside the first chunk (just after the header magic).
	data[6] ^= 0xFF
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err) // footer is still intact
	}
	if _, err := f.ReadColumns(0, []int{0}); err == nil {
		t.Fatalf("corrupted chunk read succeeded")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := OpenBytes([]byte("not a pixfile at all")); err == nil {
		t.Fatalf("garbage accepted")
	}
	if _, err := OpenBytes([]byte{}); err == nil {
		t.Fatalf("empty accepted")
	}
	// Valid magic but truncated.
	if _, err := OpenBytes([]byte(magic)); err == nil {
		t.Fatalf("truncated accepted")
	}
}

func TestWriterRejectsBadBatch(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "a", Type: col.INT64})
	w := NewWriter(schema, WriterOptions{})
	if err := w.Append(col.NewBatch(col.NewVector(col.STRING, 1))); err == nil {
		t.Fatalf("wrong type accepted")
	}
	two := col.NewBatch(col.NewVector(col.INT64, 1), col.NewVector(col.INT64, 1))
	if err := w.Append(two); err == nil {
		t.Fatalf("wrong arity accepted")
	}
}

func TestIntEncodingRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		for _, enc := range []Encoding{EncPlain, EncRLE, EncDelta} {
			b := encodeInts(enc, vals)
			got, err := decodeInts(enc, b, len(vals), nil)
			if err != nil || len(got) != len(vals) {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringDictRoundTripProperty(t *testing.T) {
	f := func(picks []uint8) bool {
		words := []string{"a", "bb", "ccc", "", "日本語"}
		vals := make([]string, len(picks)*3)
		for i := range vals {
			vals[i] = words[int(picks[i/3])%len(words)]
		}
		b, ok := encodeStringsDict(vals)
		if !ok {
			return len(vals) == 0 // tiny inputs may skip dict; that's fine
		}
		got, err := decodeVector(col.STRING, EncDict, b, len(vals), 0, nil)
		if err != nil || got.Codes == nil {
			return false
		}
		for i := range vals {
			if got.Str(i) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitpackRoundTripProperty(t *testing.T) {
	f := func(bits []bool) bool {
		p := packBits(bits)
		got, err := unpackBits(p, len(bits), nil)
		if err != nil {
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatEncodingRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		b := encodeFloats(vals)
		got, err := decodeFloats(b, len(vals), nil)
		if err != nil {
			return false
		}
		for i := range vals {
			// NaN-safe bitwise comparison via formatting is overkill; use ==
			// except NaN != NaN.
			if got[i] != vals[i] && !(got[i] != got[i] && vals[i] != vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueFooterRoundTrip(t *testing.T) {
	vals := []col.Value{
		col.Int(-5), col.Float(3.25), col.Str("hello"), col.Bool(true),
		col.Date(12345), col.Timestamp(1e15), col.NullValue(col.STRING),
	}
	w := &buf{}
	for _, v := range vals {
		writeValue(w, v)
	}
	r := newRdr(w.bytes())
	for _, want := range vals {
		got, err := readValue(r)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Type != want.Type {
			t.Fatalf("round-trip %v -> %v", want, got)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	w := NewWriter(testSchema(), WriterOptions{})
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 0 || f.NumRowGroups() != 0 {
		t.Fatalf("empty file has %d rows, %d groups", f.NumRows(), f.NumRowGroups())
	}
	out, err := f.ReadAll()
	if err != nil || out.N != 0 {
		t.Fatalf("ReadAll on empty = %v, %v", out, err)
	}
}

func TestFlateCompressionShrinksRepetitiveData(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "s", Type: col.STRING})
	v := col.NewVector(col.STRING, 2000)
	for i := range v.Strs {
		// Unique strings defeat dictionary encoding but share a long
		// common prefix, so flate compresses them well.
		v.Strs[i] = "a-very-long-shared-prefix-for-every-single-row-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	}
	raw := writeFile(t, schema, []*col.Batch{col.NewBatch(v)}, WriterOptions{Compression: CompNone})
	packed := writeFile(t, schema, []*col.Batch{col.NewBatch(v)}, WriterOptions{Compression: CompFlate})
	if len(packed) >= len(raw) {
		t.Fatalf("flate did not shrink: %d >= %d", len(packed), len(raw))
	}
}
