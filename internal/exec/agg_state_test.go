package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// stateTypes are the argument columns of TestAggStateMatchesRowReference,
// after the INT64 group key in column 0; the last STRING column is
// dictionary-coded.
var stateTypes = []col.Type{col.BOOL, col.INT64, col.DATE, col.TIMESTAMP, col.FLOAT64, col.STRING, col.STRING}

// stateBatch builds the rows of TestAggStateMatchesRowReference. Rows
// 0–19 fall in groups 0–2; rows 20–39 also bring groups 3–5, so batches
// cut after the first row or the first 7 meet new groups later. Every
// argument of group 5 is NULL; other arguments are NULL a quarter of the
// time, over a non-zero slot. FLOAT64 draws NaN, −0 and infinities.
func stateBatch() *col.Batch {
	const n = 40
	r := rand.New(rand.NewSource(42))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2.25, 1e300, math.Inf(1), math.Inf(-1), 0.1}
	strs := []string{"", "a", "ab", "b", "ba", "zz"}
	g := col.NewVector(col.INT64, n)
	vecs := []*col.Vector{g}
	for _, ty := range stateTypes {
		vecs = append(vecs, col.NewVector(ty, n))
	}
	for i := 0; i < n; i++ {
		g.Ints[i] = int64(i % 3)
		if i >= 20 {
			g.Ints[i] += 3
		}
		for c, v := range vecs[1:] {
			switch v.Type {
			case col.BOOL:
				v.Bools[i] = r.Intn(2) == 0
			case col.FLOAT64:
				v.Floats[i] = floats[r.Intn(len(floats))]
			case col.STRING:
				v.Strs[i] = strs[r.Intn(len(strs))]
			default:
				v.Ints[i] = int64(r.Intn(2001) - 1000)
			}
			if g.Ints[i] == 5 || r.Intn(4) == 0 {
				v.SetNull(i)
				if v.Type == col.INT64 || v.Type == col.DATE || v.Type == col.TIMESTAMP {
					v.Ints[i] = 77 + int64(c)
				}
			}
		}
	}
	last := vecs[len(vecs)-1]
	coded := &col.Vector{Type: col.STRING, Dict: slices.Clone(strs), Codes: make([]uint32, n), Valid: last.Valid, N: n}
	for i, s := range last.Strs {
		coded.Codes[i] = uint32(slices.Index(strs, s))
	}
	vecs[len(vecs)-1] = coded
	return col.NewBatch(vecs...)
}

// stateAggs is every aggregate the binder admits over stateTypes, plus
// COUNT(*).
func stateAggs() []plan.AggSpec {
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Ty: col.INT64, Name: "count_star"}}
	for c, ty := range stateTypes {
		arg := colRef(c+1, ty)
		for _, fn := range []plan.AggFunc{plan.AggCount, plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax} {
			spec := plan.AggSpec{Func: fn, Arg: arg, Ty: ty, Name: fmt.Sprintf("%s(c%d)", fn, c+1)}
			switch fn {
			case plan.AggCount:
				spec.Ty = col.INT64
			case plan.AggSum, plan.AggAvg:
				if !ty.Numeric() {
					continue
				}
				if fn == plan.AggAvg {
					spec.Ty = col.FLOAT64
				}
			}
			aggs = append(aggs, spec)
		}
	}
	return aggs
}

// refAgg folds one aggregate row at a time: per group, in row order.
type refAgg struct {
	count int64
	sumI  int64
	sumF  float64
	ext   col.Value
	has   bool
}

func (s *refAgg) add(spec *plan.AggSpec, x col.Value) {
	if spec.Func == plan.AggCountStar {
		s.count++
		return
	}
	if x.Null {
		return
	}
	s.count++
	switch spec.Func {
	case plan.AggSum, plan.AggAvg:
		if x.Type == col.FLOAT64 {
			s.sumF += x.F
		} else {
			s.sumI += x.I
			s.sumF += float64(x.I)
		}
	case plan.AggMin, plan.AggMax:
		less, more := false, false
		switch x.Type {
		case col.BOOL:
			less, more = !x.B && s.ext.B, x.B && !s.ext.B
		case col.FLOAT64:
			less, more = x.F < s.ext.F, x.F > s.ext.F
		case col.STRING:
			less, more = x.S < s.ext.S, x.S > s.ext.S
		default:
			less, more = x.I < s.ext.I, x.I > s.ext.I
		}
		if !s.has || spec.Func == plan.AggMin && less || spec.Func == plan.AggMax && more {
			s.ext, s.has = x, true
		}
	}
}

func (s *refAgg) result(spec *plan.AggSpec) col.Value {
	switch spec.Func {
	case plan.AggCountStar, plan.AggCount:
		return col.Int(s.count)
	case plan.AggSum:
		switch {
		case s.count == 0:
			return col.NullValue(spec.Ty)
		case spec.Ty == col.INT64:
			return col.Int(s.sumI)
		}
		return col.Float(s.sumF)
	case plan.AggAvg:
		if s.count == 0 {
			return col.NullValue(col.FLOAT64)
		}
		return col.Float(s.sumF / float64(s.count))
	}
	if !s.has {
		return col.NullValue(spec.Ty)
	}
	return s.ext
}

// refAggregate is the row-at-a-time reference: one row per group in
// first-appearance order, the key first when grouped.
func refAggregate(b *col.Batch, aggs []plan.AggSpec, grouped bool) [][]col.Value {
	var keys []int64
	var states [][]refAgg
	if !grouped {
		states = [][]refAgg{make([]refAgg, len(aggs))}
	}
	for r := 0; r < b.N; r++ {
		g := 0
		if grouped {
			k := b.Vecs[0].Ints[r]
			if g = slices.Index(keys, k); g < 0 {
				g = len(keys)
				keys = append(keys, k)
				states = append(states, make([]refAgg, len(aggs)))
			}
		}
		for i := range aggs {
			var x col.Value
			if a, ok := aggs[i].Arg.(*plan.BCol); ok {
				x = b.Vecs[a.Ordinal].Value(r)
			}
			states[g][i].add(&aggs[i], x)
		}
	}
	rows := make([][]col.Value, len(states))
	for g := range states {
		if grouped {
			rows[g] = append(rows[g], col.Int(keys[g]))
		}
		for i := range aggs {
			rows[g] = append(rows[g], states[g][i].result(&aggs[i]))
		}
	}
	return rows
}

// sameBits compares two values bit for bit: a float's sign of zero and NaN
// payload included.
func sameBits(a, b col.Value) bool {
	if a.Type != b.Type || a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	switch a.Type {
	case col.FLOAT64:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case col.BOOL:
		return a.B == b.B
	case col.STRING:
		return a.S == b.S
	}
	return a.I == b.I
}

// TestAggStateMatchesRowReference checks the columnar aggregate state
// against a row-at-a-time reference, bit for bit: every aggregate over
// BOOL, INT64, DATE, TIMESTAMP, FLOAT64 (NaN and −0 included) and plain
// and dictionary-coded STRING, grouped and global, with an all-NULL group
// and groups first met in later batches, over the same rows cut into
// batches of 1, 7 and all. A NULL result holds the zero value.
func TestAggStateMatchesRowReference(t *testing.T) {
	b := stateBatch()
	fields := []col.Field{{Name: "g", Type: col.INT64}}
	for c, ty := range stateTypes {
		fields = append(fields, col.Field{Name: fmt.Sprintf("c%d", c+1), Type: ty, Nullable: true})
	}
	schema := col.NewSchema(fields...)
	aggs := stateAggs()
	for _, grouped := range []bool{true, false} {
		node := &plan.AggNode{Child: fakeNode(schema), Aggs: aggs}
		if grouped {
			node.GroupBy, node.GroupNames = []plan.BoundExpr{colRef(0, col.INT64)}, []string{"g"}
		}
		want := refAggregate(b, aggs, grouped)
		for _, size := range []int{1, 7, b.N} {
			var batches []*col.Batch
			for lo := 0; lo < b.N; lo += size {
				batches = append(batches, b.Slice(lo, min(lo+size, b.N)))
			}
			out, err := Collect(must(NewHashAggOp(node, sliceSource(schema, batches...))))
			if err != nil {
				t.Fatal(err)
			}
			if out.N != len(want) {
				t.Fatalf("grouped=%v batch %d: %d groups, want %d", grouped, size, out.N, len(want))
			}
			for g := range want {
				for c, w := range want[g] {
					v := out.Vecs[c]
					if got := v.Value(g); !sameBits(got, w) {
						t.Fatalf("grouped=%v batch %d: group %d column %d (%s) = %v, want %v",
							grouped, size, g, c, node.Schema().Fields[c].Name, got, w)
					}
					if v.IsNull(g) && cellString(nonNull(v, g)) != cellString(zeroOf(v.Type)) {
						t.Fatalf("grouped=%v batch %d: group %d column %d: NULL over %v", grouped, size, g, c, nonNull(v, g))
					}
				}
			}
		}
	}
}
