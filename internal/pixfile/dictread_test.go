package pixfile

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"
	"unsafe"

	"repro/internal/col"
)

// sameAsInput fails unless v is dictionary-coded and, through Str, its row
// o is the writer's input row sel[o] of in (row o for a nil sel).
func sameAsInput(t *testing.T, what string, v, in *col.Vector, sel []int) {
	t.Helper()
	if v.Codes == nil || v.Strs != nil {
		t.Fatalf("%s: not dictionary-coded (codes=%v strs=%v)", what, v.Codes != nil, v.Strs != nil)
	}
	for o := 0; o < v.N; o++ {
		i := o
		if sel != nil {
			i = sel[o]
		}
		if v.IsNull(o) != in.IsNull(i) {
			t.Fatalf("%s row %d: null %v, input %v", what, o, v.IsNull(o), in.IsNull(i))
		}
		if int(v.Codes[o]) >= len(v.Dict) {
			t.Fatalf("%s row %d: code %d outside a %d-entry dictionary", what, o, v.Codes[o], len(v.Dict))
		}
		if !in.IsNull(i) && v.Str(o) != in.Strs[i] {
			t.Fatalf("%s row %d: %q, input %q", what, o, v.Str(o), in.Strs[i])
		}
	}
}

// TestDictReadMatchesFullDecode: a DICT chunk read in full and through a
// selection is dictionary-coded, and Str reproduces the writer's input row
// for row, with and without nulls. The probe's DictChunk view carries the
// same dictionary, codes and mask.
func TestDictReadMatchesFullDecode(t *testing.T) {
	for _, withNulls := range []bool{false, true} {
		t.Run(fmt.Sprintf("nulls=%v", withNulls), func(t *testing.T) {
			const rows = 400
			f, in := buildSelFixture(t, rows, withNulls)
			const dictCol = 5
			if enc := f.RowGroup(0).Chunks[dictCol].Encoding; enc != EncDict {
				t.Fatalf("fixture column encoded %s, want DICT", enc)
			}
			full, err := f.ReadColumnChunkVia(f.fetch, 0, dictCol, nil)
			if err != nil {
				t.Fatal(err)
			}
			if full.N != rows || len(full.Codes) != rows {
				t.Fatalf("shape N=%d codes=%d, want %d", full.N, len(full.Codes), rows)
			}
			if withNulls == (full.Valid == nil) {
				t.Fatalf("validity mask presence %v, want %v", full.Valid != nil, withNulls)
			}
			sameAsInput(t, "full", full, in.Vecs[dictCol], nil)
			sel := []int{0, 1, 5, 77, 200, 398, 399}
			got, err := f.ReadColumnChunkSelVia(f.fetch, 0, dictCol, sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameAsInput(t, "sel", got, in.Vecs[dictCol], sel)

			vec, dc, err := f.ReadColumnChunkDictVia(f.fetch, 0, dictCol, nil)
			if err != nil {
				t.Fatal(err)
			}
			if vec != nil || dc == nil {
				t.Fatalf("DICT chunk: got (vec=%v, dc=%v), want code-level result", vec != nil, dc != nil)
			}
			view := &col.Vector{Type: col.STRING, Dict: dc.Dict, Codes: dc.Codes, Valid: dc.Valid, N: dc.N}
			sameAsInput(t, "DictChunk", view, in.Vecs[dictCol], nil)
		})
	}
}

// TestDictReadFallsBackForOtherChunks: a non-DICT chunk (plain strings,
// ints) decodes normally through the same entry point.
func TestDictReadFallsBackForOtherChunks(t *testing.T) {
	f, want := buildSelFixture(t, 300, true)
	for _, c := range []int{0, 6} { // RLE ints, PLAIN strings
		vec, dc, err := f.ReadColumnChunkDictVia(f.fetch, 0, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dc != nil || vec == nil {
			t.Fatalf("col %d: expected vector fallback, got dc=%v", c, dc != nil)
		}
		for i := 0; i < vec.N; i++ {
			gv, wv := vec.Value(i), want.Vecs[c].Value(i)
			if gv.Null != wv.Null || (!gv.Null && !gv.Equal(wv)) {
				t.Fatalf("col %d row %d: %v want %v", c, i, gv, wv)
			}
		}
	}
}

// TestDictReadScratchReuse: a DICT decode's codes live in the scratch.
// Reads through one scratch, full and selected, reuse the codes backing
// and stay correct.
func TestDictReadScratchReuse(t *testing.T) {
	f, in := buildSelFixture(t, 200, true)
	scratch := &ChunkScratch{}
	var prev []uint32
	for round := 0; round < 3; round++ {
		v, err := f.ReadColumnChunkVia(f.fetch, 0, 5, scratch)
		if err != nil {
			t.Fatal(err)
		}
		sameAsInput(t, fmt.Sprintf("round %d", round), v, in.Vecs[5], nil)
		if prev != nil && unsafe.SliceData(v.Codes) != unsafe.SliceData(prev) {
			t.Fatalf("round %d: the codes backing was not reused", round)
		}
		prev = v.Codes
	}
	sel := []int{1, 2, 3}
	next, err := f.ReadColumnChunkSelVia(f.fetch, 0, 5, sel, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(next.Codes) != unsafe.SliceData(prev) {
		t.Fatal("the selection decode did not reuse the codes backing")
	}
	sameAsInput(t, "selected", next, in.Vecs[5], sel)
}

// TestDictRepeatedEntryIsCorrupt: a DICT chunk whose dictionary holds a
// value twice, with a valid CRC, fails a full and a selective read with
// ErrCorrupt, for a 3- and a 40-entry dictionary. The writer never writes
// such a chunk: the same column reads back as written.
func TestDictRepeatedEntryIsCorrupt(t *testing.T) {
	for _, entries := range []int{3, 40} {
		const rows = 200
		v := col.NewVector(col.STRING, rows)
		for i := range rows {
			v.Strs[i] = fmt.Sprintf("w%02d", i%entries)
		}
		w := NewWriter(col.NewSchema(col.Field{Name: "s", Type: col.STRING}), WriterOptions{RowGroupSize: rows})
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
		ch := &f.footer.RowGroups[0].Chunks[0]
		if ch.Encoding != EncDict || ch.Compression != CompNone {
			t.Fatalf("%d entries: chunk encoded %s, compression %d", entries, ch.Encoding, ch.Compression)
		}
		if _, err := f.ReadColumnChunkVia(f.fetch, 0, 0, nil); err != nil {
			t.Fatalf("%d entries: the written chunk: %v", entries, err)
		}
		// Overwrite the last entry's bytes with the first's and fix the CRC.
		chunk := data[ch.Offset : ch.Offset+ch.Length]
		last := fmt.Sprintf("w%02d", entries-1)
		at := bytes.Index(chunk, []byte(last))
		if at < 0 {
			t.Fatalf("%d entries: %s not in the chunk", entries, last)
		}
		copy(chunk[at:], "w00")
		ch.CRC = crc32.ChecksumIEEE(chunk)
		if _, err := f.ReadColumnChunkVia(f.fetch, 0, 0, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d entries: a full read of a repeated entry: %v, want ErrCorrupt", entries, err)
		}
		if _, err := f.ReadColumnChunkSelVia(f.fetch, 0, 0, []int{0, 5}, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d entries: a selective read of a repeated entry: %v, want ErrCorrupt", entries, err)
		}
	}
}
