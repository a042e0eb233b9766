package pixfile

import (
	"fmt"
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
// Reads through one scratch reuse the codes backing and stay correct;
// after Detach the escaped vector keeps its codes and the next read
// allocates fresh ones.
func TestDictReadScratchReuse(t *testing.T) {
	f, in := buildSelFixture(t, 200, true)
	scratch := &ChunkScratch{}
	var prev *col.Vector
	for round := 0; round < 3; round++ {
		v, err := f.ReadColumnChunkVia(f.fetch, 0, 5, scratch)
		if err != nil {
			t.Fatal(err)
		}
		sameAsInput(t, fmt.Sprintf("round %d", round), v, in.Vecs[5], nil)
		if prev != nil && unsafe.SliceData(v.Codes) != unsafe.SliceData(prev.Codes) {
			t.Fatalf("round %d: the codes backing was not reused", round)
		}
		prev = v
	}
	scratch.Detach()
	next, err := f.ReadColumnChunkSelVia(f.fetch, 0, 5, []int{1, 2, 3}, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(next.Codes) == unsafe.SliceData(prev.Codes) {
		t.Fatal("decode after Detach reused the escaped codes")
	}
	sameAsInput(t, "escaped", prev, in.Vecs[5], nil)
}
