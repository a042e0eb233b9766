package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

var (
	probeSchema = col.NewSchema(
		col.Field{Name: "k", Type: col.STRING, Nullable: true},
		col.Field{Name: "pv", Type: col.INT64, Nullable: true},
	)
	buildSchema = col.NewSchema(
		col.Field{Name: "k", Type: col.STRING, Nullable: true},
		col.Field{Name: "b", Type: col.BOOL, Nullable: true},
		col.Field{Name: "i", Type: col.INT64, Nullable: true},
		col.Field{Name: "d", Type: col.DATE, Nullable: true},
		col.Field{Name: "ts", Type: col.TIMESTAMP, Nullable: true},
		col.Field{Name: "f", Type: col.FLOAT64, Nullable: true},
		col.Field{Name: "s", Type: col.STRING, Nullable: true},
	)
)

// probeBatches are two dictionary-coded probe batches: keys that match
// one build row, several, none, and NULL keys.
func probeBatches() []*col.Batch {
	dict := []string{"k1", "k2", "k3", "nomatch", "k9"}
	mk := func(codes []uint32, pv []int64, nullKeys, nullPV []int) *col.Batch {
		k := &col.Vector{Type: col.STRING, Dict: dict, Codes: codes, N: len(codes)}
		for _, r := range nullKeys {
			k.SetNull(r)
		}
		v := intsVec(pv...)
		for _, r := range nullPV {
			v.SetNull(r)
			v.Ints[r] = 99 // garbage under the NULL
		}
		return col.NewBatch(k, v)
	}
	return []*col.Batch{
		mk([]uint32{0, 1, 3, 2, 0, 4}, []int64{1, 5, 2, 0, 9, 3}, []int{4}, []int{3}),
		mk([]uint32{1, 2, 3, 1}, []int64{-1, 20, 4, 7}, nil, nil),
	}
}

// buildBatches are two build batches carrying every payload type with
// NULL rows over non-zero garbage; the second one's strings are
// dictionary-coded.
func buildBatches() []*col.Batch {
	mk := func(keys []string, n int, dictCoded bool, nulls []int, seed int64) *col.Batch {
		vecs := make([]*col.Vector, len(buildSchema.Fields))
		for c, f := range buildSchema.Fields {
			vecs[c] = col.NewVector(f.Type, n)
		}
		for r := 0; r < n; r++ {
			x := seed + int64(r)
			vecs[0].Strs[r] = keys[r]
			vecs[1].Bools[r] = x%2 == 0
			vecs[2].Ints[r] = x
			vecs[3].Ints[r] = 19000 + x
			vecs[4].Ints[r] = x * 1e9
			vecs[5].Floats[r] = float64(x) / 4
			vecs[6].Strs[r] = fmt.Sprintf("s%d", x)
		}
		vecs[5].Floats[0] = math.NaN()
		vecs[5].Floats[1] = math.Copysign(0, -1)
		for _, r := range nulls {
			for c, v := range vecs[1:] {
				v.SetNull(r)
				switch c + 1 {
				case 1:
					v.Bools[r] = true
				case 2, 3, 4:
					v.Ints[r] = -7
				case 5:
					v.Floats[r] = math.Inf(1)
				case 6:
					v.Strs[r] = "garbage"
				}
			}
		}
		if dictCoded {
			for _, c := range []int{0, 6} {
				v := vecs[c]
				dict := slices.Clone(v.Strs)
				slices.Sort(dict)
				dict = slices.Compact(dict)
				v.Dict, v.Codes = dict, make([]uint32, n)
				for r, s := range v.Strs {
					v.Codes[r] = uint32(slices.Index(dict, s))
				}
				v.Strs = nil
			}
		}
		return col.NewBatch(vecs...)
	}
	b1 := mk([]string{"k1", "k2", "k2", "k3"}, 4, false, []int{1}, 0)
	b2 := mk([]string{"k2", "k9", "k3", "kx"}, 4, true, []int{2}, 10)
	b2.Vecs[0].SetNull(3) // a NULL build key never matches
	return []*col.Batch{b1, b2}
}

// cellString renders a value bit for bit (NaN and -0 included).
func cellString(v col.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Type == col.FLOAT64:
		return fmt.Sprintf("f%x", math.Float64bits(v.F))
	}
	return v.String()
}

// nestedLoopJoin is the reference: every probe row against every build
// row, keys equal and non-NULL and the residual (pv < i) true where given;
// a LEFT join keeps an unmatched probe row once, NULL-extended.
func nestedLoopJoin(probe, build []*col.Batch, kind plan.JoinKind, keyed, residual bool) []string {
	var out []string
	for _, pb := range probe {
		for p := 0; p < pb.N; p++ {
			prow := pb.Row(p)
			matched := false
			for _, bb := range build {
				for r := 0; r < bb.N; r++ {
					brow := bb.Row(r)
					if keyed && (prow[0].Null || brow[0].Null || prow[0].S != brow[0].S) {
						continue
					}
					if residual && (prow[1].Null || brow[2].Null || prow[1].I >= brow[2].I) {
						continue
					}
					matched = true
					out = append(out, rowString(append(slices.Clone(prow), brow...)))
				}
			}
			if !matched && kind == plan.JoinLeft {
				row := slices.Clone(prow)
				for _, f := range buildSchema.Fields {
					row = append(row, col.NullValue(f.Type))
				}
				out = append(out, rowString(row))
			}
		}
	}
	slices.Sort(out)
	return out
}

func rowString(row []col.Value) string {
	s := ""
	for _, v := range row {
		s += cellString(v) + "|"
	}
	return s
}

// TestJoinMaterializeEveryType joins dictionary-coded probes against
// builds of every column type, inner and LEFT, with and without a
// residual, and keyless LEFT over an empty build, against a nested-loop
// reference. Every NULL output row holds the zero value.
func TestJoinMaterializeEveryType(t *testing.T) {
	residual := &plan.BBinary{Op: "<", L: colRef(1, col.INT64), R: colRef(4, col.INT64), Ty: col.BOOL}
	key := []plan.BoundExpr{colRef(0, col.STRING)}
	cases := []struct {
		name     string
		kind     plan.JoinKind
		keyed    bool
		residual bool
		build    []*col.Batch
	}{
		{"inner", plan.JoinInner, true, false, buildBatches()},
		{"inner residual", plan.JoinInner, true, true, buildBatches()},
		{"left", plan.JoinLeft, true, false, buildBatches()},
		{"left residual", plan.JoinLeft, true, true, buildBatches()},
		{"keyless left residual", plan.JoinLeft, false, true, buildBatches()},
		{"keyless left empty build", plan.JoinLeft, false, true, nil},
		{"left empty build", plan.JoinLeft, true, false, nil},
		{"cross", plan.JoinCross, false, false, buildBatches()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node := &plan.JoinNode{Kind: tc.kind, Left: fakeNode(probeSchema), Right: fakeNode(buildSchema)}
			if tc.keyed {
				node.LeftKeys, node.RightKeys = key, key
			}
			if tc.residual {
				node.Residual = residual
			}
			op := must(hashJoin(node, sliceSource(probeSchema, probeBatches()...), sliceSource(buildSchema, tc.build...)))
			out, err := Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for r := 0; r < out.N; r++ {
				got = append(got, rowString(out.Row(r)))
			}
			slices.Sort(got)
			want := nestedLoopJoin(probeBatches(), tc.build, tc.kind, tc.keyed, tc.residual)
			if !slices.Equal(got, want) {
				t.Fatalf("rows:\n got  %q\n want %q", got, want)
			}
			for c, v := range out.Vecs {
				for r := 0; r < out.N; r++ {
					if v.IsNull(r) && v.Codes == nil && cellString(nonNull(v, r)) != cellString(zeroOf(v.Type)) {
						t.Fatalf("column %d row %d: NULL over %v", c, r, nonNull(v, r))
					}
				}
			}
		})
	}
}

// nonNull reads the slot under row r whatever its validity.
func nonNull(v *col.Vector, r int) col.Value {
	u := *v
	u.Valid = nil
	return u.Value(r)
}

func zeroOf(t col.Type) col.Value { return col.NewVector(t, 1).Value(0) }
