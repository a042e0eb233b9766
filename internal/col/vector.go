package col

import "fmt"

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
// dictionary-coded.
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
		v.Valid = make([]bool, v.N)
		for j := range v.Valid {
			v.Valid[j] = true
		}
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
	out := &Vector{Type: v.Type, N: to - from}
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

// Gather returns a new vector containing the rows at the given indexes. A
// dictionary-coded vector gathers its codes, NULL rows' included, and
// shares its dictionary.
func (v *Vector) Gather(idx []int) *Vector {
	if v.Codes != nil {
		out := &Vector{Type: v.Type, Dict: v.Dict, Codes: make([]uint32, len(idx)), Valid: gatherValid(v.Valid, idx), N: len(idx)}
		for i, j := range idx {
			out.Codes[i] = v.Codes[j]
		}
		return out
	}
	out := NewVector(v.Type, len(idx))
	out.Valid = gatherValid(v.Valid, idx)
	for i, j := range idx {
		if out.Valid != nil && !out.Valid[i] {
			continue
		}
		switch v.Type {
		case BOOL:
			out.Bools[i] = v.Bools[j]
		case INT64, DATE, TIMESTAMP:
			out.Ints[i] = v.Ints[j]
		case FLOAT64:
			out.Floats[i] = v.Floats[j]
		case STRING:
			out.Strs[i] = v.Strs[j]
		}
	}
	return out
}

// gatherValid gathers a validity mask, or returns nil when no gathered row
// is NULL.
func gatherValid(valid []bool, idx []int) []bool {
	if valid == nil {
		return nil
	}
	for k, j := range idx {
		if valid[j] {
			continue
		}
		out := make([]bool, len(idx))
		for i := range out[:k] {
			out[i] = true
		}
		for i, j := range idx[k:] {
			out[k+i] = valid[j]
		}
		return out
	}
	return nil
}

// Append appends row j of src (which must have the same type) to v.
func (v *Vector) Append(src *Vector, j int) {
	if src.IsNull(j) {
		switch v.Type {
		case BOOL:
			v.Bools = append(v.Bools, false)
		case INT64, DATE, TIMESTAMP:
			v.Ints = append(v.Ints, 0)
		case FLOAT64:
			v.Floats = append(v.Floats, 0)
		case STRING:
			v.Strs = append(v.Strs, "")
		}
		if v.Valid == nil {
			v.Valid = make([]bool, v.N)
			for k := range v.Valid {
				v.Valid[k] = true
			}
		}
		v.Valid = append(v.Valid, false)
		v.N++
		return
	}
	switch v.Type {
	case BOOL:
		v.Bools = append(v.Bools, src.Bools[j])
	case INT64, DATE, TIMESTAMP:
		v.Ints = append(v.Ints, src.Ints[j])
	case FLOAT64:
		v.Floats = append(v.Floats, src.Floats[j])
	case STRING:
		v.Strs = append(v.Strs, src.Str(j))
	}
	v.N++
	if v.Valid != nil {
		v.Valid = append(v.Valid, true)
	}
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

// Slice returns a view of rows [from, to).
func (b *Batch) Slice(from, to int) *Batch {
	vecs := make([]*Vector, len(b.Vecs))
	for i, v := range b.Vecs {
		vecs[i] = v.Slice(from, to)
	}
	return &Batch{Vecs: vecs, N: to - from}
}
