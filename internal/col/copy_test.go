package col

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// copySources returns one six-row vector per type and form, each once
// with no validity mask and once with rows 1 and 4 NULL over non-zero
// garbage.
func copySources() map[string]*Vector {
	base := map[string]*Vector{
		"bool":      {Type: BOOL, Bools: []bool{true, true, false, true, true, false}},
		"int64":     {Type: INT64, Ints: []int64{7, -3, 0, 42, math.MaxInt64, 1}},
		"date":      {Type: DATE, Ints: []int64{19000, 1, -5, 0, 20000, 3}},
		"timestamp": {Type: TIMESTAMP, Ints: []int64{1e15, -1, 0, 5e6, 9, 2}},
		"float64":   {Type: FLOAT64, Floats: []float64{1.5, math.NaN(), math.Copysign(0, -1), math.Inf(1), math.NaN(), -2}},
		"string":    {Type: STRING, Strs: []string{"a", "garbage", "", "bb", "junk", "a"}},
		"dict":      {Type: STRING, Dict: []string{"x", "", "yy"}, Codes: []uint32{2, 1, 0, 2, 2, 1}},
	}
	out := map[string]*Vector{}
	for name, v := range base {
		v.N = 6
		out[name] = v
		nv := *v
		nv.Valid = []bool{true, false, true, true, false, true}
		out[name+"/nulls"] = &nv
	}
	return out
}

// sameValue compares two Values bit for bit: NaN equals NaN, and -0 does
// not equal +0.
func sameValue(a, b Value) bool {
	switch {
	case a.Type != b.Type || a.Null != b.Null:
		return false
	case a.Null:
		return true
	case a.Type == FLOAT64:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.Equal(b)
}

// checkRow asserts that row i of v reads want, and that a NULL row holds
// the zero value (a dictionary-coded NULL row an in-range code).
func checkRow(t *testing.T, what string, v *Vector, i int, want Value) {
	t.Helper()
	if got := v.Value(i); !sameValue(got, want) {
		t.Fatalf("%s: row %d = %v, want %v", what, i, got, want)
	}
	if !v.IsNull(i) {
		return
	}
	zero := true
	switch {
	case v.Codes != nil:
		zero = int(v.Codes[i]) < len(v.Dict)
	case v.Type == BOOL:
		zero = !v.Bools[i]
	case v.Type == FLOAT64:
		zero = math.Float64bits(v.Floats[i]) == 0
	case v.Type == STRING:
		zero = v.Strs[i] == ""
	default:
		zero = v.Ints[i] == 0
	}
	if !zero {
		t.Fatalf("%s: NULL row %d does not hold the zero value: %+v", what, i, v)
	}
}

// TestGatherIntoItself: an ascending gather may write over its own
// source, as a scan's staged filter compacts a predicate column in place.
func TestGatherIntoItself(t *testing.T) {
	for name, src := range copySources() {
		for _, idx := range [][]int{{}, {0, 1, 2, 3, 4, 5}, {1, 4}, {0, 2, 3, 5}, {5}} {
			what := fmt.Sprintf("%s GatherInto itself %v", name, idx)
			v := src.Gather([]int{0, 1, 2, 3, 4, 5})
			if got := v.GatherInto(v, idx); got != v || v.N != len(idx) {
				t.Fatalf("%s: %+v", what, got)
			}
			for i, j := range idx {
				checkRow(t, what, v, i, src.Value(j))
			}
		}
	}
}

// TestRowCopiesMatchValue checks Gather, GatherInto and Append against
// Value of the source row, over every type, both string forms, with and
// without NULLs, for index lists with repeats and -1 and for empty and
// non-empty Append targets with and without a mask.
func TestRowCopiesMatchValue(t *testing.T) {
	indexes := [][]int{{}, {5, 0, 0, 3, 5}, {1, 4}, {-1, 2, -1, 1, 0}, {-1}}
	for name, src := range copySources() {
		at := func(j int) Value {
			if j < 0 {
				return NullValue(src.Type)
			}
			return src.Value(j)
		}
		for _, idx := range indexes {
			what := fmt.Sprintf("%s Gather%v", name, idx)
			g := src.Gather(idx)
			if g.N != len(idx) {
				t.Fatalf("%s: N = %d", what, g.N)
			}
			if (src.Codes != nil) != (g.Codes != nil) {
				t.Fatalf("%s: form changed: %+v", what, g)
			}
			for i, j := range idx {
				checkRow(t, what, g, i, at(j))
			}
			// GatherInto over a target holding another gather's rows.
			dst := src.Gather([]int{0, 1, 2, 3, 4, 5, 5, 4, 3})
			src.GatherInto(dst, idx)
			for i, j := range idx {
				checkRow(t, what+" into", dst, i, at(j))
			}
		}
		prefixes := map[string]*Vector{
			"empty":    NewVector(src.Type, 0),
			"unmasked": NewVector(src.Type, 2),
			"masked":   NewVector(src.Type, 2),
			"all-null": NewVector(src.Type, 1),
		}
		prefixes["masked"].SetNull(1)
		prefixes["all-null"].SetNull(0)
		for pname, dst := range prefixes {
			what := fmt.Sprintf("%s Append onto %s", name, pname)
			prefix := make([]Value, dst.N)
			for i := range prefix {
				prefix[i] = dst.Value(i)
			}
			dst.Append(src)
			dst.Append(src.Slice(2, 5))
			if dst.Codes != nil || dst.N != len(prefix)+9 {
				t.Fatalf("%s: %+v", what, dst)
			}
			for i, want := range prefix {
				checkRow(t, what, dst, i, want)
			}
			for r := 0; r < 9; r++ {
				j := r
				if r >= 6 {
					j = r - 4
				}
				checkRow(t, what, dst, len(prefix)+r, src.Value(j))
			}
			if src.Valid == nil && pname == "unmasked" && dst.Valid != nil {
				t.Fatalf("%s: a mask without a NULL row", what)
			}
		}
		// Rows without a NULL among them add no mask to an unmasked target.
		dst := NewVector(src.Type, 1)
		if dst.Append(src.Slice(2, 4)); dst.Valid != nil {
			t.Fatalf("%s: Append of rows 2-3 added a mask", name)
		}
	}
}

// TestAppendPanicsOnCodedDestination: Append writes Strs, which a
// dictionary-coded vector never reads, so appending to one must fail
// loudly rather than drop the rows.
func TestAppendPanicsOnCodedDestination(t *testing.T) {
	for name, src := range copySources() {
		if src.Type != STRING {
			continue
		}
		dst := &Vector{Type: STRING, Dict: []string{"x"}, Codes: []uint32{0}, N: 1}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append of %s onto a dictionary-coded vector did not panic", name)
				}
			}()
			dst.Append(src)
		}()
		if dst.N != 1 || len(dst.Strs) != 0 {
			t.Fatalf("Append of %s changed its coded destination: %+v", name, dst)
		}
	}
}

// TestAppendGrowsGeometrically appends 64 batches of 4,096 rows to an empty
// vector of every type and form: its values and its validity mask are each
// reallocated at most log2(64)+2 times, not on nearly every batch, and
// its rows, a NULL row's zero value included, still read their source rows.
func TestAppendGrowsGeometrically(t *testing.T) {
	const batches, rows = 64, 4096
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i % 6
	}
	for name, src := range copySources() {
		batch := src.Gather(idx)
		dst := NewVector(src.Type, 0)
		values := func() int { return cap(dst.Bools) + cap(dst.Ints) + cap(dst.Floats) + cap(dst.Strs) }
		grows, validGrows := 0, 0
		for range batches {
			c, vc := values(), cap(dst.Valid)
			dst.Append(batch)
			if values() != c {
				grows++
			}
			if cap(dst.Valid) != vc {
				validGrows++
			}
		}
		if dst.N != batches*rows {
			t.Fatalf("%s: N = %d", name, dst.N)
		}
		if limit := 6 + 2; grows > limit || validGrows > limit {
			t.Fatalf("%s: %d batches reallocated the values %d times and the mask %d times, want at most %d",
				name, batches, grows, validGrows, limit)
		}
		// A stride prime to 6 reaches every source row.
		for i := 0; i < dst.N; i += 61 {
			checkRow(t, name, dst, i, src.Value(idx[i%rows]))
		}
	}
}

// TestAppendCodesUnderOneDict: a dictionary-coded vector appends the codes
// of a source coded under the same Dict, NULL rows as code 0, and its rows
// then read the source's rows.
func TestAppendCodesUnderOneDict(t *testing.T) {
	dict := []string{"x", "", "yy"}
	dst := &Vector{Type: STRING, Dict: dict, Codes: []uint32{2}, N: 1}
	src := &Vector{Type: STRING, Dict: dict, Codes: []uint32{1, 2, 0, 2}, N: 4}
	src.SetNull(2)
	dst.Append(src)
	if dst.N != 5 || dst.Strs != nil || !slices.Equal(dst.Codes, []uint32{2, 1, 2, 0, 2}) {
		t.Fatalf("appended %+v", dst)
	}
	for i := 0; i < src.N; i++ {
		if got, want := dst.Value(1+i), src.Value(i); !got.Equal(want) {
			t.Fatalf("row %d: %v, source %v", 1+i, got, want)
		}
	}
	if dst.IsNull(0) || !dst.IsNull(3) {
		t.Fatalf("validity %v", dst.Valid)
	}
}
