package pixfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/col"
)

// Encoding identifies how a column chunk's values are encoded.
type Encoding uint8

// Chunk encodings. The writer picks per chunk: integers try PLAIN, RLE and
// DELTA and keep the smallest; strings use DICT when the dictionary pays
// for itself; booleans are always bit-packed.
const (
	EncPlain Encoding = iota
	EncRLE
	EncDelta
	EncDict
	EncBitpack
)

// String names the encoding for EXPLAIN output and tests.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "PLAIN"
	case EncRLE:
		return "RLE"
	case EncDelta:
		return "DELTA"
	case EncDict:
		return "DICT"
	case EncBitpack:
		return "BITPACK"
	default:
		return fmt.Sprintf("ENC(%d)", uint8(e))
	}
}

// Compression identifies the optional second-stage chunk compression.
type Compression uint8

// Supported compressions.
const (
	CompNone Compression = iota
	CompFlate
)

// encodeInts encodes an int64 slice with the chosen encoding.
func encodeInts(enc Encoding, vals []int64) []byte {
	w := &buf{}
	switch enc {
	case EncPlain:
		for _, v := range vals {
			w.svarint(v)
		}
	case EncRLE:
		i := 0
		for i < len(vals) {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			w.svarint(vals[i])
			w.uvarint(uint64(j - i))
			i = j
		}
	case EncDelta:
		prev := int64(0)
		for _, v := range vals {
			w.svarint(v - prev)
			prev = v
		}
	default:
		panic("pixfile: bad int encoding " + enc.String())
	}
	return w.bytes()
}

// decodeInts decodes n int64 values, reusing dst's capacity when it
// suffices.
func decodeInts(enc Encoding, p []byte, n int, dst []int64) ([]int64, error) {
	out := resizeSlice(dst, n)
	off := 0
	var u uint64
	switch enc {
	case EncPlain, EncDelta:
		prev := int64(0)
		for i := range out {
			// A one- or two-byte varint: c is 1 when the first byte
			// continues, and only then masks in the second.
			if off+1 < len(p) && p[off]&p[off+1]&0x80 == 0 {
				c := int(p[off] >> 7)
				u, off = uint64(p[off]&0x7f)|uint64(p[off+1])<<7&-uint64(c), off+1+c
			} else if u, off = uvarintAt(p, off); off < 0 {
				return nil, errBadSvarint
			}
			if enc == EncPlain {
				out[i] = unzigzag(u)
			} else {
				prev += unzigzag(u)
				out[i] = prev
			}
		}
	case EncRLE:
		for i := 0; i < n; {
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
			if u == 0 || u > uint64(n-i) {
				return nil, fmt.Errorf("%w: RLE run %d overflows %d remaining", ErrCorrupt, u, n-i)
			}
			run := out[i : i+int(u)]
			for k := range run {
				run[k] = v
			}
			i += len(run)
		}
	default:
		return nil, fmt.Errorf("%w: unexpected int encoding %s", ErrCorrupt, enc)
	}
	return out, nil
}

// pickIntEncoding encodes with each candidate and keeps the smallest.
func pickIntEncoding(vals []int64) (Encoding, []byte) {
	best := EncPlain
	bestBytes := encodeInts(EncPlain, vals)
	for _, cand := range []Encoding{EncRLE, EncDelta} {
		b := encodeInts(cand, vals)
		if len(b) < len(bestBytes) {
			best, bestBytes = cand, b
		}
	}
	return best, bestBytes
}

// encodeFloats stores raw IEEE-754 bits.
func encodeFloats(vals []float64) []byte {
	w := &buf{}
	for _, v := range vals {
		w.f64(v)
	}
	return w.bytes()
}

// decodeFloats checks the chunk length once, then reads each value's bits
// directly.
func decodeFloats(p []byte, n int, dst []float64) ([]float64, error) {
	if len(p)/8 < n {
		return nil, fmt.Errorf("%w: float chunk of %d bytes too short for %d rows", ErrCorrupt, len(p), n)
	}
	out := resizeSlice(dst, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out, nil
}

// encodeStringsPlain stores length-prefixed bytes.
func encodeStringsPlain(vals []string) []byte {
	w := &buf{}
	for _, v := range vals {
		w.str(v)
	}
	return w.bytes()
}

// decodeStringsPlain decodes length-prefixed strings. All values are
// sliced out of one shared backing allocation covering the chunk payload,
// so a plain string chunk costs one allocation for the bytes (plus the
// header slice) instead of one per row.
func decodeStringsPlain(p []byte, n int, dst []string) ([]string, error) {
	out := resizeSlice(dst, n)
	blob := string(p)
	off := 0
	for i := range out {
		ln, next := uvarintAt(p, off)
		if next < 0 {
			return nil, errBadUvarint
		}
		if ln > uint64(len(p)-next) {
			return nil, fmt.Errorf("%w: string length %d exceeds remaining %d", ErrCorrupt, ln, len(p)-next)
		}
		off = next + int(ln)
		out[i] = blob[next:off]
	}
	return out, nil
}

// resizeSlice returns s resized to length n, reusing its capacity when
// possible.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// encodeStringsDict stores a dictionary followed by indexes.
func encodeStringsDict(vals []string) ([]byte, bool) {
	dict := make(map[string]uint64)
	var order []string
	for _, v := range vals {
		if _, ok := dict[v]; !ok {
			dict[v] = uint64(len(order))
			order = append(order, v)
		}
	}
	// The dictionary pays off only if it shrinks the chunk; a cheap proxy
	// is requiring meaningful repetition.
	if len(vals) == 0 || len(order)*2 > len(vals) {
		return nil, false
	}
	w := &buf{}
	w.uvarint(uint64(len(order)))
	for _, s := range order {
		w.str(s)
	}
	for _, v := range vals {
		w.uvarint(dict[v])
	}
	return w.bytes(), true
}

// decodeStringsDict decodes a dictionary chunk. Every output row aliases
// its readDict entry, so repeated values share one allocation no matter
// how many rows carry them.
func decodeStringsDict(p []byte, n int, dst []string) ([]string, error) {
	dict, off, err := readDict(p)
	if err != nil {
		return nil, err
	}
	out := resizeSlice(dst, n)
	var u uint64
	for i := range out {
		if off < len(p) && p[off] < 0x80 {
			u, off = uint64(p[off]), off+1
		} else if u, off = uvarintAt(p, off); off < 0 {
			return nil, errBadUvarint
		}
		if u >= uint64(len(dict)) {
			return nil, fmt.Errorf("%w: dict index %d out of range %d", ErrCorrupt, u, len(dict))
		}
		out[i] = dict[u]
	}
	return out, nil
}

// readDict parses the dictionary at the head of a DICT chunk: a uvarint
// entry count, then length-prefixed entries. The entries are substrings of
// one shared backing allocation (one string conversion of the dictionary
// region). It returns them with the offset of the code stream that follows.
func readDict(p []byte) ([]string, int, error) {
	dn, off := uvarintAt(p, 0)
	if off < 0 {
		return nil, 0, errBadUvarint
	}
	if dn > uint64(len(p)) {
		return nil, 0, fmt.Errorf("%w: dict size %d too large", ErrCorrupt, dn)
	}
	// Pass 1: walk the entries to find the end of the dictionary region.
	start := off
	for i := uint64(0); i < dn; i++ {
		ln, next := uvarintAt(p, off)
		if next < 0 {
			return nil, 0, errBadUvarint
		}
		if ln > uint64(len(p)-next) {
			return nil, 0, fmt.Errorf("%w: dict entry length %d exceeds remaining %d", ErrCorrupt, ln, len(p)-next)
		}
		off = next + int(ln)
	}
	// Pass 2 slices the one backing allocation; pass 1 validated it.
	blob := string(p[start:off])
	dict := make([]string, dn)
	for i, o := 0, start; i < len(dict); i++ {
		ln, next := uvarintAt(p, o)
		o = next + int(ln)
		dict[i] = blob[next-start : o-start]
	}
	return dict, off, nil
}

// compress applies second-stage compression.
func compress(c Compression, p []byte) ([]byte, error) {
	switch c {
	case CompNone:
		return p, nil
	case CompFlate:
		var out bytes.Buffer
		zw, err := flate.NewWriter(&out, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(p); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		return out.Bytes(), nil
	default:
		return nil, fmt.Errorf("pixfile: unknown compression %d", c)
	}
}

func decompress(c Compression, p []byte) ([]byte, error) {
	switch c {
	case CompNone:
		return p, nil
	case CompFlate:
		zr := flate.NewReader(bytes.NewReader(p))
		defer zr.Close()
		out, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown compression %d", ErrCorrupt, c)
	}
}

// encodeVector encodes a full vector (validity bitmap + values) and
// returns the chosen encoding, the encoded payload and the null count.
func encodeVector(v *col.Vector) (Encoding, []byte, int) {
	nulls := 0
	if v.Valid != nil {
		for _, ok := range v.Valid {
			if !ok {
				nulls++
			}
		}
	}
	w := &buf{}
	if nulls > 0 {
		w.raw(packBits(v.Valid))
	}
	var enc Encoding
	var payload []byte
	switch v.Type {
	case col.BOOL:
		enc = EncBitpack
		payload = packBits(v.Bools)
	case col.INT64, col.DATE, col.TIMESTAMP:
		enc, payload = pickIntEncoding(v.Ints)
	case col.FLOAT64:
		enc = EncPlain
		payload = encodeFloats(v.Floats)
	case col.STRING:
		if p, ok := encodeStringsDict(v.Strs); ok {
			enc, payload = EncDict, p
		} else {
			enc, payload = EncPlain, encodeStringsPlain(v.Strs)
		}
	default:
		panic("pixfile: cannot encode type " + v.Type.String())
	}
	w.raw(payload)
	return enc, w.bytes(), nulls
}

// ChunkScratch holds reusable buffers for decoding column chunks. A vector
// decoded with a scratch aliases its buffers, so the scratch must not be
// reused until the caller is done with that vector; when the vector escapes
// (is retained beyond the next decode), call Detach so the next decode
// allocates fresh backing.
type ChunkScratch struct {
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	valid  []bool
	offs   []int    // selection-decode string offsets (never escapes)
	codes  []uint32 // dict-decode code stream (never escapes)
}

// Detach disowns the buffers so the previously decoded vector keeps them.
// offs and codes survive: they never escape into decoded vectors, so they
// stay reusable across detaches.
func (s *ChunkScratch) Detach() { *s = ChunkScratch{offs: s.offs, codes: s.codes} }

// decodeVector decodes a chunk payload back into a vector of n rows. A
// non-nil scratch donates reusable backing slices (see ChunkScratch).
func decodeVector(t col.Type, enc Encoding, p []byte, n, nulls int, scratch *ChunkScratch) (*col.Vector, error) {
	if scratch == nil {
		scratch = &ChunkScratch{}
	}
	v := &col.Vector{Type: t, N: n}
	if nulls > 0 {
		bmLen := (n + 7) / 8
		if len(p) < bmLen {
			return nil, fmt.Errorf("%w: chunk shorter than validity bitmap", ErrCorrupt)
		}
		valid, err := unpackBits(p[:bmLen], n, scratch.valid)
		if err != nil {
			return nil, err
		}
		v.Valid, scratch.valid = valid, valid
		p = p[bmLen:]
	}
	var err error
	switch t {
	case col.BOOL:
		if enc != EncBitpack {
			return nil, fmt.Errorf("%w: bool chunk with encoding %s", ErrCorrupt, enc)
		}
		v.Bools, err = unpackBits(p, n, scratch.bools)
		scratch.bools = v.Bools
	case col.INT64, col.DATE, col.TIMESTAMP:
		v.Ints, err = decodeInts(enc, p, n, scratch.ints)
		scratch.ints = v.Ints
	case col.FLOAT64:
		v.Floats, err = decodeFloats(p, n, scratch.floats)
		scratch.floats = v.Floats
	case col.STRING:
		if enc == EncDict {
			v.Strs, err = decodeStringsDict(p, n, scratch.strs)
		} else {
			v.Strs, err = decodeStringsPlain(p, n, scratch.strs)
		}
		scratch.strs = v.Strs
	default:
		return nil, fmt.Errorf("%w: cannot decode type %s", ErrCorrupt, t)
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}
