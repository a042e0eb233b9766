package exec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/col"
)

// dictCoded returns a dictionary-coded copy of a plain STRING vector: the
// same rows, NULL rows included, with a code under every NULL.
func dictCoded(v *col.Vector) *col.Vector {
	dict := slices.Clone(v.Strs)
	slices.Sort(dict)
	dict = slices.Compact(dict)
	out := &col.Vector{Type: col.STRING, Dict: dict, Codes: make([]uint32, v.N), Valid: v.Valid, N: v.N}
	for r, s := range v.Strs {
		c, _ := slices.BinarySearch(dict, s)
		out.Codes[r] = uint32(c)
	}
	return out
}

// regarbled returns a copy of v whose slots under NULL rows hold other
// values.
func regarbled(v *col.Vector) *col.Vector {
	out := *v
	out.Bools, out.Ints, out.Floats = slices.Clone(v.Bools), slices.Clone(v.Ints), slices.Clone(v.Floats)
	out.Strs, out.Codes = slices.Clone(v.Strs), slices.Clone(v.Codes)
	for r := 0; r < v.N; r++ {
		if !v.IsNull(r) {
			continue
		}
		switch {
		case v.Codes != nil:
			out.Codes[r] = (out.Codes[r] + 1) % uint32(len(v.Dict))
		case v.Type == col.BOOL:
			out.Bools[r] = !out.Bools[r]
		case v.Type == col.FLOAT64:
			out.Floats[r] += 3
		case v.Type == col.STRING:
			out.Strs[r] += "garbage"
		default:
			out.Ints[r] += 1234
		}
	}
	return &out
}

// TestHashRowMatchesHashKeys: the batch hasher and the one-row hasher
// agree bit for bit on every key type, alone and together; a NULL hashes
// the same whatever its slot holds; a dictionary-coded string column
// hashes as its plain form; -0.0 hashes as 0.0 and every NaN alike.
func TestHashRowMatchesHashKeys(t *testing.T) {
	b := stateBatch() // every key type, NULLs over garbage
	plain := b.Vecs[len(b.Vecs)-2]
	b.Vecs = append(b.Vecs, dictCoded(plain))
	sets := [][]*col.Vector{b.Vecs}
	for _, v := range b.Vecs {
		sets = append(sets, []*col.Vector{v})
	}
	var h keyHasher
	for _, keys := range sets {
		hs := slices.Clone(h.hash(keys, b.N))
		for r := 0; r < b.N; r++ {
			if got := h.hashRow(keys, r); got != hs[r] {
				t.Fatalf("%d key columns (%s first), row %d: hashRow %x, hash %x", len(keys), keys[0].Type, r, got, hs[r])
			}
		}
		garbled := make([]*col.Vector, len(keys))
		for i, v := range keys {
			garbled[i] = regarbled(v)
		}
		if got := h.hash(garbled, b.N); !slices.Equal(got, hs) {
			t.Fatalf("%d key columns (%s first): other garbage under NULLs changes the hashes", len(keys), keys[0].Type)
		}
	}
	if !slices.Equal(slices.Clone(h.hash([]*col.Vector{plain}, b.N)), h.hash(b.Vecs[len(b.Vecs)-1:], b.N)) {
		t.Fatal("a dictionary-coded column hashes unlike its plain form")
	}
	f := col.NewVector(col.FLOAT64, 4)
	f.Floats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff0000000000abc)}
	if hs := h.hash([]*col.Vector{f}, 4); hs[0] != hs[1] || hs[2] != hs[3] {
		t.Fatalf("float keys: 0 and -0 hash %x / %x, two NaNs %x / %x", hs[0], hs[1], hs[2], hs[3])
	}
}
