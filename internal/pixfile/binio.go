// Package pixfile implements the columnar storage format of the
// reproduction — the stand-in for the open-source Pixels file format that
// PixelsDB stores base tables in.
//
// A file holds row groups; each row group holds one column chunk per
// column. Chunks are individually encoded (plain, run-length, delta,
// dictionary or bit-packed), optionally DEFLATE-compressed, carry min/max
// and null-count statistics for zone-map pruning, and are CRC32-checked.
// The footer indexes row groups and chunks so readers fetch only the byte
// ranges they need — which is what makes "data scanned" a meaningful
// billing unit.
package pixfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/col"
)

// ErrCorrupt is wrapped by all decoding errors caused by malformed data.
var ErrCorrupt = errors.New("pixfile: corrupt data")

// buf is an append-only little-endian encoder.
type buf struct {
	b []byte
}

func (w *buf) bytes() []byte { return w.b }

func (w *buf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *buf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *buf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *buf) uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}
func (w *buf) svarint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}
func (w *buf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *buf) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *buf) raw(p []byte) { w.b = append(w.b, p...) }

// rdr is the matching little-endian decoder.
type rdr struct {
	b   []byte
	off int
}

func newRdr(b []byte) *rdr { return &rdr{b: b} }

func (r *rdr) remaining() int { return len(r.b) - r.off }

func (r *rdr) u8() (uint8, error) {
	if r.off+1 > len(r.b) {
		return 0, fmt.Errorf("%w: truncated u8", ErrCorrupt)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *rdr) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("%w: truncated u32", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *rdr) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("%w: truncated u64", ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *rdr) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	r.off += n
	return v, nil
}

func (r *rdr) svarint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad svarint", ErrCorrupt)
	}
	r.off += n
	return v, nil
}

func (r *rdr) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *rdr) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("%w: string length %d exceeds remaining %d", ErrCorrupt, n, r.remaining())
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Chunk decoders read varints from a local offset, not through rdr. The
// per-row loops decode the one-byte case inline (DICT codes, run lengths)
// and call uvarintAt for the rest; PLAIN and DELTA values, often two bytes,
// also take the two-byte case inline without branching on which it is.

// uvarintAt decodes the unsigned varint at p[off:] and returns it with the
// offset just past it, or a negative offset wherever binary.Uvarint would
// reject the bytes (truncated, or overflowing 64 bits).
func uvarintAt(p []byte, off int) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range p[off:] {
		if i == binary.MaxVarintLen64 {
			return 0, -1
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -1
			}
			return x | uint64(b)<<s, off + i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, -1
}

// unzigzag is binary.Varint's decoding of a zigzag-encoded uvarint.
func unzigzag(u uint64) int64 {
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

var errBadUvarint = fmt.Errorf("%w: bad uvarint", ErrCorrupt)
var errBadSvarint = fmt.Errorf("%w: bad svarint", ErrCorrupt)

// writeValue serializes a col.Value for footer statistics.
func writeValue(w *buf, v col.Value) {
	w.u8(uint8(v.Type))
	if v.Null {
		w.u8(1)
		return
	}
	w.u8(0)
	switch v.Type {
	case col.BOOL:
		if v.B {
			w.u8(1)
		} else {
			w.u8(0)
		}
	case col.INT64, col.DATE, col.TIMESTAMP:
		w.svarint(v.I)
	case col.FLOAT64:
		w.f64(v.F)
	case col.STRING:
		w.str(v.S)
	}
}

// readValue deserializes a col.Value written by writeValue.
func readValue(r *rdr) (col.Value, error) {
	t, err := r.u8()
	if err != nil {
		return col.Value{}, err
	}
	null, err := r.u8()
	if err != nil {
		return col.Value{}, err
	}
	v := col.Value{Type: col.Type(t)}
	if null == 1 {
		v.Null = true
		return v, nil
	}
	switch v.Type {
	case col.BOOL:
		b, err := r.u8()
		if err != nil {
			return v, err
		}
		v.B = b == 1
	case col.INT64, col.DATE, col.TIMESTAMP:
		v.I, err = r.svarint()
	case col.FLOAT64:
		v.F, err = r.f64()
	case col.STRING:
		v.S, err = r.str()
	default:
		return v, fmt.Errorf("%w: unknown value type %d", ErrCorrupt, t)
	}
	return v, err
}

// Bitmaps pack booleans LSB-first, eight per byte.

func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

func unpackBits(p []byte, n int, dst []bool) ([]bool, error) {
	if len(p) < (n+7)/8 {
		return nil, fmt.Errorf("%w: bitmap too short for %d bits", ErrCorrupt, n)
	}
	out := dst
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]bool, n)
	}
	for i := range out {
		out[i] = p[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}
