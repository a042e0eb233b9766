package pixfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/col"
)

// ReadColumnChunkSelVia is ReadColumnChunkVia restricted to a selection:
// it fetches and verifies the whole chunk (the fetched — and therefore
// billed — bytes are identical to a full read) but materializes only the
// rows at the ascending indexes in sel, returning a compacted vector of
// len(sel) rows. It is the decode half of selection pushdown: when a
// scan's predicate columns select few rows of a row group, the payload
// columns skip decoding the discarded rows — run-skipping for RLE,
// direct indexing for fixed-width values, a survivors-only backing blob
// for PLAIN strings and the survivors' codes for DICT strings.
//
// sel must be non-empty, strictly ascending, and within [0, NumRows).
// The result is value-identical to ReadColumnChunkVia followed by
// Gather(sel).
func (f *File) ReadColumnChunkSelVia(fetch RangeReader, g, c int, sel []int, scratch *ChunkScratch) (*col.Vector, error) {
	if g < 0 || g >= len(f.footer.RowGroups) {
		return nil, fmt.Errorf("pixfile: row group %d out of range %d", g, len(f.footer.RowGroups))
	}
	rg := f.footer.RowGroups[g]
	if c < 0 || c >= len(rg.Chunks) {
		return nil, fmt.Errorf("pixfile: column %d out of range %d", c, len(rg.Chunks))
	}
	if len(sel) == 0 || sel[0] < 0 || sel[len(sel)-1] >= rg.NumRows {
		return nil, fmt.Errorf("pixfile: selection out of range for row group of %d rows", rg.NumRows)
	}
	ch := rg.Chunks[c]
	raw, err := fetch(ch.Offset, ch.Length)
	if err != nil {
		return nil, fmt.Errorf("pixfile: read chunk rg=%d col=%d: %w", g, c, err)
	}
	if crc := crc32.ChecksumIEEE(raw); crc != ch.CRC {
		return nil, fmt.Errorf("%w: CRC mismatch rg=%d col=%d", ErrCorrupt, g, c)
	}
	payload, err := decompress(ch.Compression, raw)
	if err != nil {
		return nil, err
	}
	vec, err := decodeVectorSel(f.footer.Schema.Fields[c].Type, ch.Encoding, payload, rg.NumRows, ch.Stats.NullCount, sel, scratch)
	if err != nil {
		return nil, fmt.Errorf("pixfile: decode chunk rg=%d col=%d: %w", g, c, err)
	}
	return vec, nil
}

// decodeVectorSel decodes only the selected rows of a chunk payload. The
// output matches decodeVector + gather exactly, including the convention
// that null rows carry the zero value.
func decodeVectorSel(t col.Type, enc Encoding, p []byte, n, nulls int, sel []int, scratch *ChunkScratch) (*col.Vector, error) {
	if scratch == nil {
		scratch = &ChunkScratch{}
	}
	v := &col.Vector{Type: t, N: len(sel)}
	if nulls > 0 {
		bmLen := (n + 7) / 8
		if len(p) < bmLen {
			return nil, fmt.Errorf("%w: chunk shorter than validity bitmap", ErrCorrupt)
		}
		valid := resizeSlice(scratch.valid, len(sel))
		anyNull := false
		for o, i := range sel {
			ok := p[i/8]&(1<<(i%8)) != 0
			valid[o] = ok
			anyNull = anyNull || !ok
		}
		scratch.valid = valid
		if anyNull {
			v.Valid = valid
		}
		// No selected row is null: leave Valid nil, exactly as Gather over
		// the full decode would (and so the kernels' mask-free fast loops
		// stay eligible downstream).
		p = p[bmLen:]
	}
	var err error
	switch t {
	case col.BOOL:
		if enc != EncBitpack {
			return nil, fmt.Errorf("%w: bool chunk with encoding %s", ErrCorrupt, enc)
		}
		if len(p) < (sel[len(sel)-1]+8)/8 {
			return nil, fmt.Errorf("%w: bitmap too short for %d bits", ErrCorrupt, sel[len(sel)-1]+1)
		}
		bools := resizeSlice(scratch.bools, len(sel))
		for o, i := range sel {
			bools[o] = p[i/8]&(1<<(i%8)) != 0
		}
		v.Bools, scratch.bools = bools, bools
	case col.INT64, col.DATE, col.TIMESTAMP:
		v.Ints, err = decodeIntsSel(enc, p, n, sel, scratch.ints)
		scratch.ints = v.Ints
	case col.FLOAT64:
		v.Floats, err = decodeFloatsSel(p, sel, scratch.floats)
		scratch.floats = v.Floats
	case col.STRING:
		if enc == EncDict {
			v.Dict, v.Codes, err = decodeDictCodesSel(p, sel, scratch)
		} else {
			scratch.offs = resizeSlice(scratch.offs, len(sel)+1)
			v.Strs, err = decodeStringsPlainSel(p, sel, scratch.strs, scratch.offs)
			scratch.strs = v.Strs
		}
	default:
		return nil, fmt.Errorf("%w: cannot decode type %s", ErrCorrupt, t)
	}
	if err != nil {
		return nil, err
	}
	if v.Valid != nil {
		zeroNulls(v)
	}
	return v, nil
}

// zeroNulls clears the value at every null position so a selection decode
// is byte-for-byte what a full decode followed by Gather produces (Gather
// leaves the zero value at null rows, and keeps a dictionary-coded null
// row's code, as the selection decode does).
func zeroNulls(v *col.Vector) {
	if v.Codes != nil {
		return
	}
	for i, ok := range v.Valid {
		if ok {
			continue
		}
		switch v.Type {
		case col.BOOL:
			v.Bools[i] = false
		case col.INT64, col.DATE, col.TIMESTAMP:
			v.Ints[i] = 0
		case col.FLOAT64:
			v.Floats[i] = 0
		case col.STRING:
			v.Strs[i] = ""
		}
	}
}

// decodeIntsSel decodes the selected rows of an integer chunk. PLAIN and
// DELTA walk varints only up to the last selected row; RLE additionally
// skips whole runs that contain no selected row.
func decodeIntsSel(enc Encoding, p []byte, n int, sel []int, dst []int64) ([]int64, error) {
	out := resizeSlice(dst, len(sel))
	o, off := 0, 0
	last := sel[len(sel)-1]
	var u uint64
	switch enc {
	case EncPlain, EncDelta:
		prev := int64(0)
		for row := 0; row <= last; row++ {
			if off+1 < len(p) && p[off]&p[off+1]&0x80 == 0 {
				c := int(p[off] >> 7)
				u, off = uint64(p[off]&0x7f)|uint64(p[off+1])<<7&-uint64(c), off+1+c
			} else if u, off = uvarintAt(p, off); off < 0 {
				return nil, errBadSvarint
			}
			if enc == EncPlain {
				prev = unzigzag(u)
			} else {
				prev += unzigzag(u)
			}
			if row == sel[o] {
				out[o] = prev
				o++
			}
		}
	case EncRLE:
		row := 0
		for o < len(out) {
			if row >= n {
				return nil, fmt.Errorf("%w: RLE chunk ends before row %d", ErrCorrupt, sel[o])
			}
			if off < len(p) && p[off] < 0x80 {
				u, off = uint64(p[off]), off+1
			} else if u, off = uvarintAt(p, off); off < 0 {
				return nil, errBadSvarint
			}
			v := unzigzag(u)
			if off < len(p) && p[off] < 0x80 {
				u, off = uint64(p[off]), off+1
			} else if u, off = uvarintAt(p, off); off < 0 {
				return nil, errBadUvarint
			}
			if u == 0 || u > uint64(n-row) {
				return nil, fmt.Errorf("%w: RLE run %d overflows %d remaining", ErrCorrupt, u, n-row)
			}
			row += int(u)
			for o < len(out) && sel[o] < row {
				out[o] = v
				o++
			}
		}
	default:
		return nil, fmt.Errorf("%w: unexpected int encoding %s", ErrCorrupt, enc)
	}
	return out, nil
}

// decodeFloatsSel reads the selected fixed-width values by direct offset —
// no sequential walk at all — after one length check.
func decodeFloatsSel(p []byte, sel []int, dst []float64) ([]float64, error) {
	last := sel[len(sel)-1]
	if len(p) < (last+1)*8 {
		return nil, fmt.Errorf("%w: float chunk too short for row %d", ErrCorrupt, last)
	}
	out := resizeSlice(dst, len(sel))
	for o, i := range sel {
		out[o] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out, nil
}

// decodeStringsPlainSel walks the length prefixes up to the last selected
// row but copies only the survivors' bytes into one compact backing blob —
// at low selectivity the per-chunk string allocation shrinks with the
// selection instead of covering the whole chunk.
// offs is caller-provided scratch of len(sel)+1 (it never escapes — the
// returned strings slice into the blob, not into offs).
func decodeStringsPlainSel(p []byte, sel []int, dst []string, offs []int) ([]string, error) {
	out := resizeSlice(dst, len(sel))
	offs[0] = 0
	var blob []byte
	o, off := 0, 0
	last := sel[len(sel)-1]
	for row := 0; row <= last; row++ {
		ln, next := uvarintAt(p, off)
		if next < 0 {
			return nil, errBadUvarint
		}
		if ln > uint64(len(p)-next) {
			return nil, fmt.Errorf("%w: string length %d exceeds remaining %d", ErrCorrupt, ln, len(p)-next)
		}
		off = next + int(ln)
		if row == sel[o] {
			blob = append(blob, p[next:off]...)
			offs[o+1] = len(blob)
			o++
		}
	}
	s := string(blob)
	for i := range out {
		out[i] = s[offs[i]:offs[i+1]]
	}
	return out, nil
}
