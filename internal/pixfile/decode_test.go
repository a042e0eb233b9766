package pixfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/col"
)

// varintInputs is the differential corpus: every one-byte input,
// 2^(7k)±1 for k = 1..9, MaxUint64, MinInt64/MaxInt64 zigzagged, every
// truncation of a 10-byte varint, non-minimal encodings, overflowing 10th
// bytes and 11-byte inputs.
func varintInputs() [][]byte {
	var in [][]byte
	for b := 0; b < 256; b++ {
		in = append(in, []byte{byte(b)})
	}
	for k := 1; k <= 9; k++ {
		x := uint64(1) << (7 * k)
		for _, v := range []uint64{x - 1, x, x + 1} {
			in = append(in, binary.AppendUvarint(nil, v))
		}
	}
	in = append(in, binary.AppendVarint(nil, math.MinInt64), binary.AppendVarint(nil, math.MaxInt64))
	longest := binary.AppendUvarint(nil, math.MaxUint64)
	for i := 0; i <= len(longest); i++ {
		in = append(in, longest[:i])
	}
	for k := 1; k <= 10; k++ {
		in = append(in, append(bytes.Repeat([]byte{0x80}, k), 0x00)) // non-minimal; k = 10 is 11 bytes
	}
	for _, last := range []byte{0x01, 0x02, 0x7f, 0x80, 0xff} {
		in = append(in, append(bytes.Repeat([]byte{0xff}, 9), last))
		in = append(in, append(bytes.Repeat([]byte{0x80}, 9), last))
	}
	in = append(in, append(bytes.Repeat([]byte{0xff}, 10), 0x01))
	return in
}

// dictPrefix is a DICT chunk's dictionary of dn entries "0", "1", ...
func dictPrefix(dn int) []byte {
	w := &buf{}
	w.uvarint(uint64(dn))
	for i := 0; i < dn; i++ {
		w.str(strconv.Itoa(i))
	}
	return w.bytes()
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestInlineVarintMatchesBinary checks uvarintAt and every inline varint
// site of the chunk decoders against encoding/binary: the same value and
// offset where binary accepts, an ErrCorrupt error wherever it rejects.
// Each accepted input is followed by a one-byte marker value that the
// decoder must read next, which pins the offset it stopped at.
func TestInlineVarintMatchesBinary(t *testing.T) {
	const dn = 300
	dict := dictPrefix(dn)
	all2 := []int{0, 1}
	for _, b := range varintInputs() {
		u, un := binary.Uvarint(b)
		s, sn := binary.Varint(b)
		name := fmt.Sprintf("% x", b)

		// uvarintAt, at the start and past a prefix; rejected inputs get no
		// marker, which could complete a truncated varint.
		for _, pre := range [][]byte{nil, {0xff, 0x80, 0x01}} {
			if un <= 0 {
				if got, next := uvarintAt(cat(pre, b), len(pre)); next >= 0 {
					t.Errorf("uvarintAt(%s) = %d, %d; binary rejects", name, got, next)
				}
			} else if got, next := uvarintAt(cat(pre, b, []byte{0x05}), len(pre)); got != u || next != len(pre)+un {
				t.Errorf("uvarintAt(%s) = %d, %d; binary says %d, %d", name, got, next, u, len(pre)+un)
			}
		}

		// Signed sites: PLAIN, DELTA and RLE values, full and selected.
		signed := []struct {
			enc   Encoding
			chunk []byte // b, then the marker value 1
			want  []int64
		}{
			{EncPlain, cat(b, []byte{0x02}), []int64{s, 1}},
			{EncDelta, cat(b, []byte{0x02}), []int64{s, s + 1}},
			{EncRLE, cat(b, []byte{0x01, 0x02, 0x01}), []int64{s, 1}},
		}
		for _, c := range signed {
			if sn <= 0 {
				if _, err := decodeInts(c.enc, b, 1, nil); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s decodeInts(%s): err %v; binary rejects", c.enc, name, err)
				}
				if _, err := decodeIntsSel(c.enc, b, 1, []int{0}, nil); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s decodeIntsSel(%s): err %v; binary rejects", c.enc, name, err)
				}
				continue
			}
			full, err := decodeInts(c.enc, c.chunk, 2, nil)
			if err != nil || full[0] != c.want[0] || full[1] != c.want[1] {
				t.Errorf("%s decodeInts(%s) = %v, %v; want %v", c.enc, name, full, err, c.want)
			}
			sel, err := decodeIntsSel(c.enc, c.chunk, 2, all2, nil)
			if err != nil || sel[0] != c.want[0] || sel[1] != c.want[1] {
				t.Errorf("%s decodeIntsSel(%s) = %v, %v; want %v", c.enc, name, sel, err, c.want)
			}
		}

		// Unsigned sites: an RLE run length and the two DICT code streams.
		if un <= 0 {
			if _, err := decodeInts(EncRLE, cat([]byte{0x00}, b), 1, nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("RLE run %s: err %v; binary rejects", name, err)
			}
			if _, err := decodeIntsSel(EncRLE, cat([]byte{0x00}, b), 1, []int{0}, nil); !errors.Is(err, ErrCorrupt) {
				t.Errorf("RLE sel run %s: err %v; binary rejects", name, err)
			}
		} else if u >= 1 && u <= 1024 {
			chunk := cat([]byte{0x00}, b, []byte{0x02, 0x01})
			full, err := decodeInts(EncRLE, chunk, int(u)+1, nil)
			if err != nil || full[u-1] != 0 || full[u] != 1 {
				t.Errorf("RLE run %s = %v, %v; want %d zeros then 1", name, full, err, u)
			}
			sel, err := decodeIntsSel(EncRLE, chunk, int(u)+1, []int{int(u) - 1, int(u)}, nil)
			if err != nil || sel[0] != 0 || sel[1] != 1 {
				t.Errorf("RLE sel run %s = %v, %v; want [0 1]", name, sel, err)
			}
		}
		codesOnly := cat(dict, b)
		chunk := cat(dict, b, []byte{0x05})
		switch {
		case un <= 0 || u >= dn:
			_, _, err1 := decodeDictCodes(codesOnly, 1, &ChunkScratch{})
			_, _, err2 := decodeDictCodesSel(codesOnly, []int{0}, &ChunkScratch{})
			for _, err := range []error{err1, err2} {
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("dict code %s: err %v; want ErrCorrupt", name, err)
				}
			}
		default:
			want := []string{strconv.Itoa(int(u)), "5"}
			for _, dec := range []func() ([]string, []uint32, error){
				func() ([]string, []uint32, error) { return decodeDictCodes(chunk, 2, &ChunkScratch{}) },
				func() ([]string, []uint32, error) { return decodeDictCodesSel(chunk, all2, &ChunkScratch{}) },
			} {
				dict, codes, err := dec()
				if err != nil || codes[0] != uint32(u) || codes[1] != 5 || dict[codes[0]] != want[0] || dict[codes[1]] != want[1] {
					t.Errorf("dict codes %s = %v, %v; want [%d 5]", name, codes, err, u)
				}
			}
		}
	}
}

var fuzzTypes = []col.Type{col.BOOL, col.INT64, col.DATE, col.TIMESTAMP, col.FLOAT64, col.STRING}

// FuzzChunkDecode feeds arbitrary chunk payloads to the full, selected-rows
// and code-level decoders. None may panic, every error must wrap
// ErrCorrupt, and where the full and selected decodes both succeed the
// selected one must be full.Gather(sel), bit for bit (a DICT string chunk's
// codes included). Where the code-level decode of a DICT string chunk
// succeeds too, the full decode must be dictionary-coded with the same
// codes, which index its strings.
func FuzzChunkDecode(f *testing.F) {
	seen := map[Encoding]bool{}
	for _, withNulls := range []bool{false, true} {
		_, batch := buildSelFixture(f, 97, withNulls)
		for _, v := range batch.Vecs {
			enc, payload, nulls := encodeVector(v)
			seen[enc] = true
			ti := slices.Index(fuzzTypes, v.Type)
			for _, cut := range []int{len(payload), len(payload) - 1, len(payload) / 2} {
				f.Add(uint8(ti), uint8(enc), uint16(v.N), uint16(nulls), payload[:cut], int64(cut))
			}
		}
	}
	if len(seen) != 5 {
		f.Fatalf("seeds cover encodings %v, want all five", seen)
	}
	f.Fuzz(func(t *testing.T, ti, encb uint8, n16, nulls16 uint16, p []byte, seed int64) {
		typ := fuzzTypes[int(ti)%len(fuzzTypes)]
		enc := Encoding(encb % 6)
		n, nulls := int(n16%4097), int(nulls16)
		full, err := decodeVector(typ, enc, p, n, nulls, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decodeVector: error %v does not wrap ErrCorrupt", err)
		}
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		var sel []int
		for i, every := 0, 1+rng.Intn(8); i < n; i++ {
			if rng.Intn(every) == 0 {
				sel = append(sel, i)
			}
		}
		if len(sel) == 0 {
			sel = []int{rng.Intn(n)}
		}
		got, serr := decodeVectorSel(typ, enc, p, n, nulls, sel, nil)
		if serr != nil && !errors.Is(serr, ErrCorrupt) {
			t.Fatalf("decodeVectorSel: error %v does not wrap ErrCorrupt", serr)
		}
		if err == nil && serr == nil {
			sameBits(t, got, full.Gather(sel))
		}
		codes := p
		if nulls > 0 {
			codes = p[min((n+7)/8, len(p)):]
		}
		dict, cs, derr := decodeDictCodes(codes, n, &ChunkScratch{})
		if derr != nil && !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("decodeDictCodes: error %v does not wrap ErrCorrupt", derr)
		}
		if derr == nil && err == nil && typ == col.STRING && enc == EncDict {
			if full.Codes == nil {
				t.Fatal("DICT chunk decoded without codes")
			}
			for i, c := range cs {
				if c != full.Codes[i] || dict[c] != full.Str(i) {
					t.Fatalf("row %d: code %d is %q, full decode %d, %q", i, c, dict[c], full.Codes[i], full.Str(i))
				}
			}
		}
	})
}

// sameBits fails unless got and want hold the same rows, comparing floats
// by their bits, and strings through Str plus, when dictionary-coded,
// their codes.
func sameBits(t *testing.T, got, want *col.Vector) {
	t.Helper()
	if got.Type != want.Type || got.N != want.N || (got.Valid == nil) != (want.Valid == nil) || (got.Codes == nil) != (want.Codes == nil) {
		t.Fatalf("shape: got %v/%d/valid=%v/codes=%v, want %v/%d/valid=%v/codes=%v", got.Type, got.N, got.Valid != nil, got.Codes != nil, want.Type, want.N, want.Valid != nil, want.Codes != nil)
	}
	for i := 0; i < want.N; i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("row %d: null %v, want %v", i, got.IsNull(i), want.IsNull(i))
		}
		var same bool
		switch want.Type {
		case col.BOOL:
			same = got.Bools[i] == want.Bools[i]
		case col.FLOAT64:
			same = math.Float64bits(got.Floats[i]) == math.Float64bits(want.Floats[i])
		case col.STRING:
			same = got.Str(i) == want.Str(i) && (got.Codes == nil || got.Codes[i] == want.Codes[i])
		default:
			same = got.Ints[i] == want.Ints[i]
		}
		if !same {
			t.Fatalf("row %d: got %v, want %v", i, got.Value(i), want.Value(i))
		}
	}
}

// BenchmarkDecodeChunk times the chunk decode kernels on one row group
// (DefaultRowGroupSize rows) per encoding, as a full decode and as a
// decode of every other row, and reports ns/row of the chunk.
func BenchmarkDecodeChunk(b *testing.B) {
	const n = DefaultRowGroupSize
	rng := rand.New(rand.NewSource(1))
	plain, rle, delta := make([]int64, n), make([]int64, n), make([]int64, n)
	floats, strs := make([]float64, n), make([]string, n)
	modes := []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	// Shaped like lineitem: orders of 1..7 lines, so l_orderkey-like runs
	// (RLE) and l_shipdate-like dates, a random order date plus 1..120
	// days (DELTA, mostly two-byte deltas).
	for i, order, odate := 0, int64(0), int64(0); i < n; i++ {
		if i == 0 || rng.Intn(4) == 0 {
			order, odate = order+1, 8035+rng.Int63n(2406)
		}
		plain[i] = rng.Int63n(1 << 20)
		rle[i] = order
		delta[i] = odate + 1 + rng.Int63n(120)
		floats[i] = float64(rng.Intn(10_000_000)) / 100
		strs[i] = modes[rng.Intn(len(modes))]
	}
	dictChunk, ok := encodeStringsDict(strs)
	if !ok {
		b.Fatal("strings did not dictionary-encode")
	}
	var half []int
	for i := 0; i < n; i += 2 {
		half = append(half, i)
	}
	cases := []struct {
		name string
		typ  col.Type
		enc  Encoding
		p    []byte
	}{
		{"ints-plain", col.INT64, EncPlain, encodeInts(EncPlain, plain)},
		{"ints-delta", col.INT64, EncDelta, encodeInts(EncDelta, delta)},
		{"ints-rle", col.INT64, EncRLE, encodeInts(EncRLE, rle)},
		{"floats-plain", col.FLOAT64, EncPlain, encodeFloats(floats)},
		{"dict", col.STRING, EncDict, dictChunk},
	}
	run := func(b *testing.B, decode func(*ChunkScratch) error) {
		scratch := &ChunkScratch{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := decode(scratch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
	}
	for _, c := range cases {
		b.Run(c.name+"/full", func(b *testing.B) {
			run(b, func(s *ChunkScratch) error {
				_, err := decodeVector(c.typ, c.enc, c.p, n, 0, s)
				return err
			})
		})
		b.Run(c.name+"/sel50", func(b *testing.B) {
			run(b, func(s *ChunkScratch) error {
				_, err := decodeVectorSel(c.typ, c.enc, c.p, n, 0, half, s)
				return err
			})
		})
	}
	b.Run("dict-codes/full", func(b *testing.B) {
		run(b, func(s *ChunkScratch) error {
			_, _, err := decodeDictCodes(dictChunk, n, s)
			return err
		})
	})
}
