package pixfile

import (
	"fmt"
	"hash/crc32"

	"repro/internal/col"
)

// DictChunk is the code-level decode of a DICT-encoded string chunk: the
// dictionary entries (substrings of one shared backing allocation), the
// per-row code stream, and the per-row validity mask (nil when the chunk
// has no nulls). Null rows carry the code the encoder assigned their zero
// value — in range, but meaningful only through Valid. Dict and Valid/Codes
// may alias decoder scratch; they are valid until the scratch's next use.
type DictChunk struct {
	Dict  []string
	Codes []uint32
	Valid []bool
	N     int
}

// ReadColumnChunkDictVia fetches, CRC-verifies and decompresses chunk
// (g, c) exactly like ReadColumnChunkVia — one fetch of the same byte
// range, so billed bytes are identical — but stops a DICT-encoded string
// chunk at the code level instead of materializing row strings: the caller
// gets the dictionary plus codes and decides which rows deserve a string
// at all. Any other chunk decodes normally. Exactly one of the two results
// is non-nil.
func (f *File) ReadColumnChunkDictVia(fetch RangeReader, g, c int, scratch *ChunkScratch) (*col.Vector, *DictChunk, error) {
	if g < 0 || g >= len(f.footer.RowGroups) {
		return nil, nil, fmt.Errorf("pixfile: row group %d out of range %d", g, len(f.footer.RowGroups))
	}
	rg := f.footer.RowGroups[g]
	if c < 0 || c >= len(rg.Chunks) {
		return nil, nil, fmt.Errorf("pixfile: column %d out of range %d", c, len(rg.Chunks))
	}
	ch := rg.Chunks[c]
	t := f.footer.Schema.Fields[c].Type
	if t != col.STRING || ch.Encoding != EncDict {
		vec, err := f.ReadColumnChunkVia(fetch, g, c, scratch)
		return vec, nil, err
	}
	raw, err := fetch(ch.Offset, ch.Length)
	if err != nil {
		return nil, nil, fmt.Errorf("pixfile: read chunk rg=%d col=%d: %w", g, c, err)
	}
	if crc := crc32.ChecksumIEEE(raw); crc != ch.CRC {
		return nil, nil, fmt.Errorf("%w: CRC mismatch rg=%d col=%d", ErrCorrupt, g, c)
	}
	p, err := decompress(ch.Compression, raw)
	if err != nil {
		return nil, nil, err
	}
	if scratch == nil {
		scratch = &ChunkScratch{}
	}
	n := rg.NumRows
	dc := &DictChunk{N: n}
	if ch.Stats.NullCount > 0 {
		bmLen := (n + 7) / 8
		if len(p) < bmLen {
			return nil, nil, fmt.Errorf("%w: chunk shorter than validity bitmap", ErrCorrupt)
		}
		valid, err := unpackBits(p[:bmLen], n, scratch.valid)
		if err != nil {
			return nil, nil, err
		}
		dc.Valid, scratch.valid = valid, valid
		p = p[bmLen:]
	}
	dc.Dict, dc.Codes, err = decodeDictCodes(p, n, scratch)
	if err != nil {
		return nil, nil, fmt.Errorf("pixfile: decode chunk rg=%d col=%d: %w", g, c, err)
	}
	return nil, dc, nil
}

// decodeDictCodes is decodeStringsDict stopped at the code level: the same
// readDict, then the code stream into a reusable uint32 buffer instead of a
// per-row string translation.
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
