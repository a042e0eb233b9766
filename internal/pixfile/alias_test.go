package pixfile

import (
	"fmt"
	"testing"

	"repro/internal/col"
)

// nullShapes are the validity layouts every decoder must handle: no
// bitmap, a sparse bitmap, and a chunk that is all NULL.
var nullShapes = []struct {
	name string
	null func(i int) bool
}{
	{"none", func(int) bool { return false }},
	{"some", func(i int) bool { return i%4 == 1 }},
	{"all", func(int) bool { return true }},
}

// buildAliasFixture writes a file of two row groups whose columns cover
// every chunk encoding (RLE, DELTA and PLAIN ints, floats, bitpacked
// bools, DICT and PLAIN strings), with the given null shape.
func buildAliasFixture(t *testing.T, rows int, null func(int) bool, comp Compression) []byte {
	t.Helper()
	rle := col.NewVector(col.INT64, rows)
	delta := col.NewVector(col.INT64, rows)
	plain := col.NewVector(col.INT64, rows)
	fl := col.NewVector(col.FLOAT64, rows)
	bo := col.NewVector(col.BOOL, rows)
	dict := col.NewVector(col.STRING, rows)
	ps := col.NewVector(col.STRING, rows)
	vecs := []*col.Vector{rle, delta, plain, fl, bo, dict, ps}
	words := []string{"red", "green", "blue"}
	for i := 0; i < rows; i++ {
		rle.Ints[i] = int64(i / 50)
		delta.Ints[i] = int64(i * 3)
		plain.Ints[i] = int64(uint32(i*2654435761) >> 3)
		fl.Floats[i] = float64(i) / 7
		bo.Bools[i] = i%3 == 0
		dict.Strs[i] = words[i%len(words)]
		ps.Strs[i] = fmt.Sprintf("row-%d-%d", i, i*i%997)
		if null(i) {
			for _, v := range vecs {
				v.SetNull(i)
			}
		}
	}
	var fields []col.Field
	for i, name := range []string{"rle", "delta", "plain", "fl", "bo", "dict", "ps"} {
		fields = append(fields, col.Field{Name: name, Type: vecs[i].Type, Nullable: true})
	}
	w := NewWriter(col.NewSchema(fields...), WriterOptions{RowGroupSize: rows / 2, Compression: comp})
	if err := w.Append(col.NewBatch(vecs...)); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scribbler is a RangeReader that returns every read in one shared buffer
// and overwrites that buffer with 0xA5 first, so anything a decoder kept
// pointing into an earlier read changes under it.
type scribbler struct {
	data   []byte
	shared []byte
}

func (s *scribbler) scribble() {
	s.shared = s.shared[:cap(s.shared)]
	for i := range s.shared {
		s.shared[i] = 0xA5
	}
}

func (s *scribbler) read(off, length int64) ([]byte, error) {
	s.scribble()
	s.shared = s.shared[:length]
	copy(s.shared, s.data[off:off+length])
	return s.shared, nil
}

// TestDecodersNeverAliasFetchedBytes pins the invariant a scan's reused
// chunk buffer relies on: no decode result — full, selection or
// code-level, dictionary entries included — points into the bytes it was
// decoded from. Every encoding × null shape × compression is decoded
// through a reader that returns one shared, scribbled-over buffer; after a
// final scribble the results must equal a decode from fresh buffers. The
// full and selection decodes also run through one ChunkScratch detached
// after each, as a scan does when a vector escapes: later decodes through
// that scratch must leave the escaped codes and values alone.
func TestDecodersNeverAliasFetchedBytes(t *testing.T) {
	const rows = 300
	sel := []int{0, 1, 2, 7, 40, 149, 150, 151, 298, 299}
	for _, shape := range nullShapes {
		for _, comp := range []Compression{CompNone, CompFlate} {
			t.Run(fmt.Sprintf("nulls=%s/comp=%d", shape.name, comp), func(t *testing.T) {
				data := buildAliasFixture(t, rows, shape.null, comp)
				f, err := OpenBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				if shape.name == "none" {
					want := []Encoding{EncRLE, EncDelta, EncPlain, EncPlain, EncBitpack, EncDict, EncPlain}
					for c, enc := range want {
						if got := f.RowGroup(0).Chunks[c].Encoding; got != enc {
							t.Fatalf("fixture col %d encoded %s, want %s", c, got, enc)
						}
					}
				}
				fresh := func(off, length int64) ([]byte, error) {
					return append([]byte(nil), data[off:off+length]...), nil
				}
				s := &scribbler{data: data, shared: make([]byte, 0, len(data))}
				scratch := &ChunkScratch{}

				type decoded struct {
					what      string
					got, want *col.Vector
					gotDict   *DictChunk
					wantDict  *DictChunk
				}
				var all []decoded
				for g := 0; g < f.NumRowGroups(); g++ {
					gsel := sel[:0:0]
					for _, i := range sel {
						if i >= g*rows/2 && i < (g+1)*rows/2 {
							gsel = append(gsel, i-g*rows/2)
						}
					}
					for c := 0; c < f.Schema().Len(); c++ {
						where := fmt.Sprintf("rg=%d col=%d", g, c)
						got, err := f.ReadColumnChunkVia(s.read, g, c, nil)
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						want, err := f.ReadColumnChunkVia(fresh, g, c, nil)
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, decoded{what: "full " + where, got: got, want: want})

						gotSel, err := f.ReadColumnChunkSelVia(s.read, g, c, gsel, nil)
						if err != nil {
							t.Fatalf("sel %s: %v", where, err)
						}
						wantSel, err := f.ReadColumnChunkSelVia(fresh, g, c, gsel, nil)
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, decoded{what: "sel " + where, got: gotSel, want: wantSel})

						escaped, err := f.ReadColumnChunkVia(s.read, g, c, scratch)
						if err != nil {
							t.Fatalf("scratch %s: %v", where, err)
						}
						scratch.Detach()
						escapedSel, err := f.ReadColumnChunkSelVia(s.read, g, c, gsel, scratch)
						if err != nil {
							t.Fatalf("scratch sel %s: %v", where, err)
						}
						scratch.Detach()
						all = append(all,
							decoded{what: "escaped full " + where, got: escaped, want: want},
							decoded{what: "escaped sel " + where, got: escapedSel, want: wantSel})

						gv, gdc, err := f.ReadColumnChunkDictVia(s.read, g, c, nil)
						if err != nil {
							t.Fatalf("dict %s: %v", where, err)
						}
						wv, wdc, err := f.ReadColumnChunkDictVia(fresh, g, c, nil)
						if err != nil {
							t.Fatal(err)
						}
						all = append(all, decoded{what: "dict " + where, got: gv, want: wv, gotDict: gdc, wantDict: wdc})
					}
				}
				s.scribble()

				for _, d := range all {
					if (d.got == nil) != (d.want == nil) || (d.gotDict == nil) != (d.wantDict == nil) {
						t.Fatalf("%s: result kinds differ", d.what)
					}
					if d.got != nil {
						sameVector(t, d.what, d.got, d.want)
					}
					if d.gotDict != nil {
						sameDictChunk(t, d.what, d.gotDict, d.wantDict)
					}
				}
			})
		}
	}
}

// sameVector fails unless got and want hold the same rows and, when
// dictionary-coded, the same dictionary entries and codes.
func sameVector(t *testing.T, what string, got, want *col.Vector) {
	t.Helper()
	if got.N != want.N || got.Type != want.Type || (got.Codes == nil) != (want.Codes == nil) {
		t.Fatalf("%s: %d rows of %s (codes %v), want %d of %s (codes %v)", what, got.N, got.Type, got.Codes != nil, want.N, want.Type, want.Codes != nil)
	}
	if want.Codes != nil {
		sameDictChunk(t, what, &DictChunk{Dict: got.Dict, Codes: got.Codes, Valid: got.Valid, N: got.N},
			&DictChunk{Dict: want.Dict, Codes: want.Codes, Valid: want.Valid, N: want.N})
	}
	for i := 0; i < got.N; i++ {
		gv, wv := got.Value(i), want.Value(i)
		if gv.Null != wv.Null || (!gv.Null && !gv.Equal(wv)) {
			t.Fatalf("%s row %d: got %v, want %v", what, i, gv, wv)
		}
	}
}

func sameDictChunk(t *testing.T, what string, got, want *DictChunk) {
	t.Helper()
	if got.N != want.N || len(got.Dict) != len(want.Dict) || len(got.Codes) != len(want.Codes) || len(got.Valid) != len(want.Valid) {
		t.Fatalf("%s: dictionary chunk shape differs", what)
	}
	for i := range got.Dict {
		if got.Dict[i] != want.Dict[i] {
			t.Fatalf("%s dict entry %d: got %q, want %q", what, i, got.Dict[i], want.Dict[i])
		}
	}
	for i := range got.Codes {
		if got.Codes[i] != want.Codes[i] {
			t.Fatalf("%s code %d: got %d, want %d", what, i, got.Codes[i], want.Codes[i])
		}
	}
	for i := range got.Valid {
		if got.Valid[i] != want.Valid[i] {
			t.Fatalf("%s validity %d differs", what, i)
		}
	}
}
