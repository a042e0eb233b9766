package pixfile

import (
	"testing"
	"unsafe"

	"repro/internal/col"
)

// mkStringChunkFile builds a one-column, one-row-group file of n string
// rows produced by gen.
func mkStringChunkFile(t *testing.T, n int, gen func(int) string) *File {
	t.Helper()
	schema := col.NewSchema(col.Field{Name: "s", Type: col.STRING})
	v := col.NewVector(col.STRING, n)
	for i := range v.Strs {
		v.Strs[i] = gen(i)
	}
	w := NewWriter(schema, WriterOptions{RowGroupSize: n})
	if err := w.Append(col.NewBatch(v)); err != nil {
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
	return f
}

// strDataPtr returns the pointer to a string's backing bytes.
func strDataPtr(s string) uintptr {
	return uintptr(unsafe.Pointer(unsafe.StringData(s)))
}

// TestDictDecodeSharedBacking asserts that a decoded DICT chunk stays
// dictionary-coded over one backing blob: one dictionary entry per
// distinct value, every entry inside one allocation, rows read through
// their codes, and decoding is O(distinct) allocations, not O(rows).
func TestDictDecodeSharedBacking(t *testing.T) {
	words := []string{"alpha", "bravo", "charlie"}
	const n = 4096
	f := mkStringChunkFile(t, n, func(i int) string { return words[i%3] })
	if enc := f.RowGroup(0).Chunks[0].Encoding; enc != EncDict {
		t.Fatalf("chunk encoding = %s, want DICT", enc)
	}
	b, err := f.ReadColumns(0, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	v := b.Vecs[0]
	if v.Codes == nil || v.Strs != nil {
		t.Fatal("DICT chunk did not decode dictionary-coded")
	}
	if len(v.Dict) != len(words) {
		t.Fatalf("dictionary of %d entries, want %d", len(v.Dict), len(words))
	}
	for i := 0; i < n; i++ {
		if got := v.Str(i); got != words[i%3] {
			t.Fatalf("row %d = %q, want %q", i, got, words[i%3])
		}
	}
	// All dict entries live in one blob: pointers of distinct values lie
	// within one small span (the dictionary region of the chunk).
	lo, hi := strDataPtr(v.Dict[0]), strDataPtr(v.Dict[0])
	for _, e := range v.Dict[1:] {
		p := strDataPtr(e)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if span := hi - lo; span > 64 {
		t.Fatalf("dictionary entries span %d bytes — not one shared blob", span)
	}

	// Allocation bound: decoding n rows of a 3-entry dictionary should be
	// O(1) in n (blob + dict header + codes + vector bookkeeping).
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.ReadColumns(0, []int{0}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("DICT decode of %d rows costs %.0f allocs, want O(distinct)", n, allocs)
	}
}

// TestPlainStringDecodeSharedBacking: PLAIN string chunks decode all rows
// out of one shared payload blob.
func TestPlainStringDecodeSharedBacking(t *testing.T) {
	const n = 1024
	// All-distinct values defeat the dictionary.
	f := mkStringChunkFile(t, n, func(i int) string {
		return "value-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))
	})
	if enc := f.RowGroup(0).Chunks[0].Encoding; enc != EncPlain {
		t.Fatalf("chunk encoding = %s, want PLAIN", enc)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.ReadColumns(0, []int{0}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("PLAIN string decode of %d rows costs %.0f allocs, want one blob", n, allocs)
	}
}

// TestReadColumnChunkViaScratchReuse asserts the scratch contract: reused
// scratch recycles the backing slices, and Detach releases them to the
// escaped vector.
func TestReadColumnChunkViaScratchReuse(t *testing.T) {
	schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64})
	v := col.NewVector(col.INT64, 2048)
	for i := range v.Ints {
		v.Ints[i] = int64(i * 7)
	}
	w := NewWriter(schema, WriterOptions{RowGroupSize: 1024})
	if err := w.Append(col.NewBatch(v)); err != nil {
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
	fetch := func(off, length int64) ([]byte, error) { return data[off : off+length], nil }

	scratch := &ChunkScratch{}
	v0, err := f.ReadColumnChunkVia(fetch, 0, 0, scratch)
	if err != nil {
		t.Fatal(err)
	}
	p0 := uintptr(unsafe.Pointer(&v0.Ints[0]))
	v1, err := f.ReadColumnChunkVia(fetch, 1, 0, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if uintptr(unsafe.Pointer(&v1.Ints[0])) != p0 {
		t.Fatal("second decode did not reuse the scratch backing")
	}
	if v1.Ints[0] != 1024*7 {
		t.Fatalf("reused decode produced wrong data: %d", v1.Ints[0])
	}

	// After Detach the escaped vector keeps its backing; the next decode
	// allocates fresh.
	scratch.Detach()
	keep := v1.Ints[0]
	v2, err := f.ReadColumnChunkVia(fetch, 0, 0, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if uintptr(unsafe.Pointer(&v2.Ints[0])) == p0 {
		t.Fatal("decode after Detach reused the escaped backing")
	}
	if v1.Ints[0] != keep {
		t.Fatal("escaped vector was clobbered")
	}
}

// TestReadColumnChunkViaLeavesBytesReadUntouched: per-chunk reads through
// an explicit fetcher must not mutate the File's own counter (a scan
// accounts its bytes on its side).
func TestReadColumnChunkViaLeavesBytesReadUntouched(t *testing.T) {
	f := mkStringChunkFile(t, 256, func(i int) string { return "x" })
	before := f.BytesRead()
	if _, err := f.ReadColumnChunkVia(func(off, length int64) ([]byte, error) {
		return nil, nil
	}, 0, 0, nil); err == nil {
		// nil payload fails CRC/decode — irrelevant; the counter matters.
		_ = err
	}
	if f.BytesRead() != before {
		t.Fatalf("ReadColumnChunkVia mutated BytesRead: %d -> %d", before, f.BytesRead())
	}
	if f.FooterBytes() != before {
		t.Fatalf("FooterBytes %d != post-open BytesRead %d", f.FooterBytes(), before)
	}
}
