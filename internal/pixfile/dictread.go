package pixfile

import (
	"fmt"

	"repro/internal/col"
)

// DictChunk is the code-level view of a DICT-encoded string chunk: the
// dictionary, one code per row and the validity mask (nil when the chunk
// has no nulls). It is what ReadColumnChunkDictVia returns; the engine
// reads the same fields off a dictionary-coded col.Vector.
type DictChunk struct {
	Dict  []string
	Codes []uint32
	Valid []bool
	N     int
}

// ReadColumnChunkDictVia is ReadColumnChunkVia with a DICT-encoded string
// chunk returned as a DictChunk instead of a vector. Exactly one of the two
// results is non-nil. It remains for the benchmark harness's probe.
func (f *File) ReadColumnChunkDictVia(fetch RangeReader, g, c int, scratch *ChunkScratch) (*col.Vector, *DictChunk, error) {
	v, err := f.ReadColumnChunkVia(fetch, g, c, scratch)
	if err != nil || v.Codes == nil {
		return v, nil, err
	}
	return nil, &DictChunk{Dict: v.Dict, Codes: v.Codes, Valid: v.Valid, N: v.N}, nil
}

// decodeDictCodes decodes a DICT chunk's dictionary (readDict) and its n
// codes, into the scratch's code buffer, checking each against the
// dictionary size.
func decodeDictCodes(p []byte, n int, scratch *ChunkScratch) ([]string, []uint32, error) {
	dict, off, err := readDict(p)
	if err != nil {
		return nil, nil, err
	}
	codes := resizeSlice(scratch.codes, n)
	scratch.codes = codes
	var u uint64
	for i := range codes {
		if off < len(p) && p[off] < 0x80 {
			u, off = uint64(p[off]), off+1
		} else if u, off = uvarintAt(p, off); off < 0 {
			return nil, nil, errBadUvarint
		}
		if u >= uint64(len(dict)) {
			return nil, nil, fmt.Errorf("%w: dict index %d out of range %d", ErrCorrupt, u, len(dict))
		}
		codes[i] = uint32(u)
	}
	return dict, codes, nil
}

// decodeDictCodesSel is decodeDictCodes for the selected rows: it walks the
// code stream only up to the last selected row and keeps the selected
// rows' codes.
func decodeDictCodesSel(p []byte, sel []int, scratch *ChunkScratch) ([]string, []uint32, error) {
	dict, off, err := readDict(p)
	if err != nil {
		return nil, nil, err
	}
	codes := resizeSlice(scratch.codes, len(sel))
	scratch.codes = codes
	o := 0
	last := sel[len(sel)-1]
	var u uint64
	for row := 0; row <= last; row++ {
		if off < len(p) && p[off] < 0x80 {
			u, off = uint64(p[off]), off+1
		} else if u, off = uvarintAt(p, off); off < 0 {
			return nil, nil, errBadUvarint
		}
		if u >= uint64(len(dict)) {
			return nil, nil, fmt.Errorf("%w: dict index %d out of range %d", ErrCorrupt, u, len(dict))
		}
		if row == sel[o] {
			codes[o] = uint32(u)
			o++
		}
	}
	return dict, codes, nil
}
