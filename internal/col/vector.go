package col

import (
	"fmt"
	"slices"
)

// Vector is a column of values of a single type. The typed slice matching
// Type is populated; Valid is an optional validity mask where false marks a
// NULL (a nil Valid means all rows are valid).
//
// A STRING vector holds its rows in one of two forms: Strs, one string per
// row, or dictionary-coded, where Dict holds distinct values and Codes one
// index into Dict per row (Strs is then nil). A non-nil Codes marks the
// dictionary form. Str reads a row in either form; a NULL row of a
// dictionary-coded vector keeps an in-range code, and Valid decides. Set
// and Append write Strs: the vector they fill must not be
// dictionary-coded, and Append panics on one.
//
// A published Dict is never written: a decoder makes a new one for every
// chunk, and copies of a vector share it. So a Dict slice's identity, its
// first element's address and its length, names its contents, and a
// holder of the slice may key what it derived from the entries by that
// identity.
//
// Rows move between vectors in two ways only: Gather (or GatherInto) picks
// rows by index, -1 for a NULL row, and Append adds every row of another
// vector. Both store the zero value under a NULL row, so the same rows
// encode to the same bytes however they were copied.
type Vector struct {
	Type   Type
	Bools  []bool
	Ints   []int64 // INT64, DATE, TIMESTAMP
	Floats []float64
	Strs   []string
	Dict   []string
	Codes  []uint32
	Valid  []bool
	N      int
}

// SameDict reports whether a and b are one dictionary: the same first
// element and length. A published Dict is never written, so one
// dictionary always holds the same entries.
func SameDict(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// NewVector allocates a vector of the given type with capacity for n rows,
// length n.
func NewVector(t Type, n int) *Vector {
	v := &Vector{Type: t, N: n}
	switch t {
	case BOOL:
		v.Bools = make([]bool, n)
	case INT64, DATE, TIMESTAMP:
		v.Ints = make([]int64, n)
	case FLOAT64:
		v.Floats = make([]float64, n)
	case STRING:
		v.Strs = make([]string, n)
	default:
		panic(fmt.Sprintf("col: NewVector unsupported type %s", t))
	}
	return v
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Valid != nil && !v.Valid[i] }

// Str returns row i of a STRING vector in either form.
func (v *Vector) Str(i int) string {
	if v.Codes != nil {
		return v.Dict[v.Codes[i]]
	}
	return v.Strs[i]
}

// Strings returns the rows of a STRING vector as one string per row: Strs
// itself, or, for a dictionary-coded vector, dst resized to N and filled
// through the dictionary.
func (v *Vector) Strings(dst []string) []string {
	if v.Codes == nil {
		return v.Strs
	}
	if cap(dst) < v.N {
		dst = make([]string, v.N)
	}
	dst = dst[:v.N]
	for i, c := range v.Codes[:v.N] {
		dst[i] = v.Dict[c]
	}
	return dst
}

// SetNull marks row i as NULL, materializing the validity mask on demand.
func (v *Vector) SetNull(i int) {
	if v.Valid == nil {
		v.Valid = appendValid(nil, v.N, nil)
	}
	v.Valid[i] = false
}

// Value extracts row i as a dynamic Value.
func (v *Vector) Value(i int) Value {
	if v.IsNull(i) {
		return NullValue(v.Type)
	}
	switch v.Type {
	case BOOL:
		return Bool(v.Bools[i])
	case INT64:
		return Int(v.Ints[i])
	case DATE:
		return Date(v.Ints[i])
	case TIMESTAMP:
		return Timestamp(v.Ints[i])
	case FLOAT64:
		return Float(v.Floats[i])
	case STRING:
		return Str(v.Str(i))
	default:
		panic(fmt.Sprintf("col: Value unsupported type %s", v.Type))
	}
}

// Set stores a dynamic Value into row i. The value must match the vector
// type (numeric widening between INT64 and FLOAT64 is applied).
func (v *Vector) Set(i int, val Value) {
	if val.Null {
		v.SetNull(i)
		return
	}
	if v.Valid != nil {
		v.Valid[i] = true
	}
	switch v.Type {
	case BOOL:
		v.Bools[i] = val.B
	case INT64, DATE, TIMESTAMP:
		v.Ints[i] = val.AsInt()
	case FLOAT64:
		v.Floats[i] = val.AsFloat()
	case STRING:
		v.Strs[i] = val.S
	default:
		panic(fmt.Sprintf("col: Set unsupported type %s", v.Type))
	}
}

// Slice returns a view of rows [from, to).
func (v *Vector) Slice(from, to int) *Vector {
	out := v.slice(from, to)
	return &out
}

// slice is Slice by value, so that a caller's view of a few rows can stay
// off the heap.
func (v *Vector) slice(from, to int) Vector {
	out := Vector{Type: v.Type, N: to - from}
	switch v.Type {
	case BOOL:
		out.Bools = v.Bools[from:to]
	case INT64, DATE, TIMESTAMP:
		out.Ints = v.Ints[from:to]
	case FLOAT64:
		out.Floats = v.Floats[from:to]
	case STRING:
		if v.Codes != nil {
			out.Dict, out.Codes = v.Dict, v.Codes[from:to]
		} else {
			out.Strs = v.Strs[from:to]
		}
	}
	if v.Valid != nil {
		out.Valid = v.Valid[from:to]
	}
	return out
}

// Gather returns a new vector containing the rows at the given indexes;
// an index of -1 gathers a NULL row. A dictionary-coded vector gathers its
// codes, NULL rows' included (a -1 row gets code 0), and shares its
// dictionary.
func (v *Vector) Gather(idx []int) *Vector { return v.GatherInto(&Vector{}, idx) }

// GatherInto is Gather into dst: it writes the rows at idx over dst,
// reusing the capacity of dst's slices of v's form, and returns dst. NULL
// rows carry the zero value, as in a new vector. dst may be v itself when
// idx ascends with no -1: each row then moves to a position at or before
// its own, after every row it overwrites was read.
func (v *Vector) GatherInto(dst *Vector, idx []int) *Vector {
	out := Vector{Type: v.Type, N: len(idx), Valid: gatherValid(dst.Valid, v.Valid, idx)}
	switch {
	case v.Codes != nil:
		out.Dict, out.Codes = v.Dict, gather(dst.Codes, v.Codes, idx, out.Valid, true)
	case v.Type == BOOL:
		out.Bools = gather(dst.Bools, v.Bools, idx, out.Valid, false)
	case v.Type == FLOAT64:
		out.Floats = gather(dst.Floats, v.Floats, idx, out.Valid, false)
	case v.Type == STRING:
		out.Strs = gather(dst.Strs, v.Strs, idx, out.Valid, false)
	default:
		out.Ints = gather(dst.Ints, v.Ints, idx, out.Valid, false)
	}
	*dst = out
	return dst
}

// gather writes src's elements at idx into dst's capacity (a new slice
// when it falls short, and never nil). Where valid marks a NULL it stores
// the zero value, or with keepNull src's element when the index is not -1.
// The gathered mask is false at every -1, so an index of -1 never reads
// src.
func gather[T any](dst, src []T, idx []int, valid []bool, keepNull bool) []T {
	if dst == nil || cap(dst) < len(idx) {
		dst = make([]T, len(idx))
	}
	dst = dst[:len(idx)]
	var zero T
	for i, j := range idx {
		if valid == nil || valid[i] || keepNull && j >= 0 {
			dst[i] = src[j]
		} else {
			dst[i] = zero
		}
	}
	return dst
}

// gatherValid gathers a validity mask into dst's capacity, false at every
// -1, or returns nil when no gathered row is NULL.
func gatherValid(dst, valid []bool, idx []int) []bool {
	for _, j := range idx {
		if j < 0 || valid != nil && !valid[j] {
			dst = slices.Grow(dst[:0], len(idx))[:len(idx)]
			for i, j := range idx {
				dst[i] = j >= 0 && (valid == nil || valid[j])
			}
			return dst
		}
	}
	return nil
}

// Append appends every row of src, which must have v's type, to v. A
// dictionary-coded src appends its strings to a plain v, and its codes to a
// dictionary-coded v, which must share src's Dict; Append panics on a plain
// src or another Dict then. NULL rows carry the zero value (code 0), and v
// gains a validity mask only once a NULL row arrives.
func (v *Vector) Append(src *Vector) {
	if v.Codes != nil && (src.Codes == nil || !SameDict(v.Dict, src.Dict)) {
		panic("col: Append to a dictionary-coded vector from another dictionary")
	}
	n, valid := src.N, src.Valid
	if valid != nil {
		if valid = valid[:n]; !slices.Contains(valid, false) {
			valid = nil
		}
	}
	if valid != nil || v.Valid != nil {
		if v.Valid == nil {
			v.Valid = appendValid(nil, v.N, nil)
		}
		v.Valid = appendValid(v.Valid, n, valid)
	}
	switch v.Type {
	case BOOL:
		v.Bools = appendRows(v.Bools, src.Bools[:n], valid)
	case FLOAT64:
		v.Floats = appendRows(v.Floats, src.Floats[:n], valid)
	case STRING:
		if v.Codes != nil {
			v.Codes = appendRows(v.Codes, src.Codes[:n], valid)
			break
		}
		// Strings fills v's spare capacity when it suffices, so a
		// dictionary-coded src needs no temporary.
		v.Strs = grow(v.Strs, n)
		v.Strs = appendRows(v.Strs, src.Strings(v.Strs[len(v.Strs):])[:n], valid)
	default:
		v.Ints = appendRows(v.Ints, src.Ints[:n], valid)
	}
	v.N += n
}

// appendRows appends src to dst with the zero value where valid marks a
// NULL.
func appendRows[T any](dst, src []T, valid []bool) []T {
	k := len(dst)
	dst = append(grow(dst, len(src)), src...)
	var zero T
	for i, ok := range valid {
		if !ok {
			dst[k+i] = zero
		}
	}
	return dst
}

// grow returns s with room for n more elements. When it must reallocate,
// it at least doubles s, so a vector appended to batch after batch copies
// each row a bounded number of times (append alone grows large slices by
// about a quarter).
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// appendValid appends src to a validity mask, or n valid rows when src is
// nil.
func appendValid(dst []bool, n int, src []bool) []bool {
	if src != nil {
		return append(grow(dst, n), src...)
	}
	k := len(dst)
	dst = grow(dst, n)[:k+n]
	for i := k; i < len(dst); i++ {
		dst[i] = true
	}
	return dst
}

// Batch is a horizontal slice of a table: one vector per column, all with
// the same row count.
type Batch struct {
	Vecs []*Vector
	N    int
}

// NewBatch builds a batch from vectors, which must agree on length.
func NewBatch(vecs ...*Vector) *Batch {
	n := 0
	if len(vecs) > 0 {
		n = vecs[0].N
	}
	for _, v := range vecs {
		if v.N != n {
			panic("col: NewBatch with unequal vector lengths")
		}
	}
	return &Batch{Vecs: vecs, N: n}
}

// EmptyBatch builds a zero-row batch matching the schema.
func EmptyBatch(schema *Schema) *Batch {
	vecs := make([]*Vector, schema.Len())
	for i, f := range schema.Fields {
		vecs[i] = NewVector(f.Type, 0)
	}
	return &Batch{Vecs: vecs}
}

// Row extracts row i as dynamic values.
func (b *Batch) Row(i int) []Value {
	row := make([]Value, len(b.Vecs))
	for c, v := range b.Vecs {
		row[c] = v.Value(i)
	}
	return row
}

// Gather returns a new batch with only the rows at idx.
func (b *Batch) Gather(idx []int) *Batch {
	vecs := make([]*Vector, len(b.Vecs))
	for i, v := range b.Vecs {
		vecs[i] = v.Gather(idx)
	}
	return &Batch{Vecs: vecs, N: len(idx)}
}

// Append appends every row of src, which must have b's column types.
func (b *Batch) Append(src *Batch) {
	for c, v := range b.Vecs {
		v.Append(src.Vecs[c])
	}
	b.N += src.N
}

// Slice returns a view of rows [from, to).
func (b *Batch) Slice(from, to int) *Batch {
	vecs := make([]*Vector, len(b.Vecs))
	for i, v := range b.Vecs {
		vecs[i] = v.Slice(from, to)
	}
	return &Batch{Vecs: vecs, N: to - from}
}
