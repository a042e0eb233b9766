package exec

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/plan"
)

// Three tables for join chains: a probe table a, the lower build b and the
// upper build c. Every key column has duplicates and NULLs over non-zero
// garbage; b_c is the column the upper join reads from b.
var (
	chainA = chainTable("a", []catalog.Column{
		{Name: "a_k", Type: col.INT64, Nullable: true},
		{Name: "a_v", Type: col.INT64},
	})
	chainB = chainTable("b", []catalog.Column{
		{Name: "b_k", Type: col.INT64, Nullable: true},
		{Name: "b_c", Type: col.INT64, Nullable: true},
		{Name: "b_s", Type: col.STRING},
	})
	chainC = chainTable("c", []catalog.Column{
		{Name: "c_k", Type: col.INT64, Nullable: true},
		{Name: "c_f", Type: col.FLOAT64},
		{Name: "c_w", Type: col.INT64},
	})
)

func chainTable(name string, cols []catalog.Column) *plan.ScanNode {
	t := &catalog.Table{Name: name, Columns: cols}
	ords := make([]int, len(cols))
	for i := range ords {
		ords[i] = i
	}
	return &plan.ScanNode{Table: t, Binding: name, Cols: ords}
}

// chainBatch builds one batch of the scan's columns from rows of int,
// float64 and string cells; a nil cell is an INT64 NULL over the garbage
// value 77.
func chainBatch(scan *plan.ScanNode, rows ...[]any) *col.Batch {
	schema := scan.Schema()
	vecs := make([]*col.Vector, schema.Len())
	for c, f := range schema.Fields {
		vecs[c] = col.NewVector(f.Type, len(rows))
	}
	for r, row := range rows {
		for c, v := range vecs {
			switch x := row[c].(type) {
			case nil:
				v.SetNull(r)
				v.Ints[r] = 77
			case int:
				v.Ints[r] = int64(x)
			case float64:
				v.Floats[r] = x
			case string:
				v.Strs[r] = x
			}
		}
	}
	return col.NewBatch(vecs...)
}

// chainData holds dense keys: b_k spans 1..4 and b_c, c_k and c_f 10..50,
// so every integer build key takes the direct layout. A stride above 1
// multiplies every non-NULL key by it, so every build hashes.
func chainData(stride int64) map[*plan.ScanNode][]*col.Batch {
	data := map[*plan.ScanNode][]*col.Batch{
		chainA: {
			chainBatch(chainA, []any{1, 10}, []any{2, 20}, []any{nil, 30}, []any{3, 40}, []any{1, 50}),
			chainBatch(chainA, []any{4, 60}, []any{2, 5}, []any{9, 70}),
		},
		chainB: {
			chainBatch(chainB, []any{1, 10, "b0"}, []any{2, 20, "b1"}, []any{1, 30, "b2"}),
			chainBatch(chainB, []any{3, nil, "b3"}, []any{2, 10, "b4"}, []any{nil, 20, "b5"}, []any{4, 40, "b6"}),
		},
		chainC: {
			chainBatch(chainC, []any{10, 10.0, 15}, []any{20, 20.0, 45}, []any{nil, 30.0, 99}),
			chainBatch(chainC, []any{10, 10.5, 55}, []any{50, 40.0, 25}),
		},
	}
	for s, keys := range map[*plan.ScanNode][]int{chainA: {0}, chainB: {0, 1}, chainC: {0, 1}} {
		for _, b := range data[s] {
			for _, c := range keys {
				v := b.Vecs[c]
				for r := 0; r < b.N; r++ {
					if v.Type == col.FLOAT64 {
						v.Floats[r] *= float64(stride)
					} else if !v.IsNull(r) {
						v.Ints[r] *= stride
					}
				}
			}
		}
	}
	return data
}

// chainRef is the nested-loop reference for (a ⋈ b) ⋈ c: keys equal and
// non-NULL (an INT64 key against a FLOAT64 one compares as float), the
// residual a_v < c_w where given, and a LEFT join keeping an unmatched row
// once, NULL-extended, where its match would have been.
func chainRef(data map[*plan.ScanNode][]*col.Batch, child, parent plan.JoinKind, floatKey, residual bool) []string {
	rows := func(s *plan.ScanNode) [][]col.Value {
		var out [][]col.Value
		for _, b := range data[s] {
			for r := 0; r < b.N; r++ {
				out = append(out, b.Row(r))
			}
		}
		return out
	}
	nulls := func(s *plan.ScanNode) []col.Value {
		var out []col.Value
		for _, f := range s.Schema().Fields {
			out = append(out, col.NullValue(f.Type))
		}
		return out
	}
	eq := func(x, y col.Value) bool {
		return !x.Null && !y.Null && x.AsFloat() == y.AsFloat()
	}
	var ab [][]col.Value
	for _, a := range rows(chainA) {
		matched := false
		for _, b := range rows(chainB) {
			if eq(a[0], b[0]) {
				matched = true
				ab = append(ab, append(slices.Clone(a), b...))
			}
		}
		if !matched && child == plan.JoinLeft {
			ab = append(ab, append(slices.Clone(a), nulls(chainB)...))
		}
	}
	var out []string
	for _, r := range ab {
		matched := false
		for _, c := range rows(chainC) {
			key := c[0]
			if floatKey {
				key = c[1]
			}
			if !eq(r[3], key) || residual && r[1].I >= c[2].I {
				continue
			}
			matched = true
			out = append(out, rowString(append(slices.Clone(r), c...)))
		}
		if !matched && parent == plan.JoinLeft {
			out = append(out, rowString(append(slices.Clone(r), nulls(chainC)...)))
		}
	}
	return out
}

// chainPlan binds (a ⋈ b ON a_k = b_k) ⋈ c ON b_c = c_k (c_f with
// floatKey), with a_v < c_w as the upper join's residual where asked.
func chainPlan(child, parent plan.JoinKind, floatKey, residual bool) *plan.JoinNode {
	lower := &plan.JoinNode{Kind: child, Left: chainA, Right: chainB,
		LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
	upper := &plan.JoinNode{Kind: parent, Left: lower, Right: chainC,
		LeftKeys: []plan.BoundExpr{colRef(3, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
	if floatKey {
		upper.RightKeys = []plan.BoundExpr{colRef(1, col.FLOAT64)}
	}
	if residual {
		upper.Residual = &plan.BBinary{Op: "<", L: colRef(1, col.INT64), R: colRef(7, col.INT64), Ty: col.BOOL}
	}
	return upper
}

func chainEnv(data map[*plan.ScanNode][]*col.Batch) BuildEnv {
	return BuildEnv{ScanFactory: func(s *plan.ScanNode) (func() (BatchIterator, error), error) {
		return func() (BatchIterator, error) {
			bs := data[s]
			return func() (*col.Batch, error) {
				if len(bs) == 0 {
					return nil, nil
				}
				b := bs[0]
				bs = bs[1:]
				return b, nil
			}, nil
		}, nil
	}}
}

// TestJoinChainMatchesNestedLoop runs three-table chains over builds
// prepared top-down by PrepareBuilds, whose lower build is reduced by the
// upper one, against a nested-loop reference, rows in order. Each case runs
// twice: over dense keys, which the direct layout indexes, and over keys a
// large stride apart, which hash. The cases cover duplicate and NULL keys, a residual on the upper join, an INT64 = FLOAT64
// upper key and LEFT at either level (neither reduces), and an upper build
// that reduces the lower one to no rows.
func TestJoinChainMatchesNestedLoop(t *testing.T) {
	cases := []struct {
		name              string
		child, parent     plan.JoinKind
		floatKey, residue bool
		emptyC            bool
		lowerRows         int // the lower build's rows once prepared
	}{
		{"inner", plan.JoinInner, plan.JoinInner, false, false, false, 4},
		{"inner residual", plan.JoinInner, plan.JoinInner, false, true, false, 4},
		{"int = float key", plan.JoinInner, plan.JoinInner, true, false, false, 7},
		{"left lower", plan.JoinLeft, plan.JoinInner, false, false, false, 7},
		{"left upper", plan.JoinInner, plan.JoinLeft, false, false, false, 7},
		{"left upper residual", plan.JoinInner, plan.JoinLeft, false, true, false, 7},
		{"upper build empty", plan.JoinInner, plan.JoinInner, false, false, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, stride := range map[string]int64{"dense": 1, "sparse": 1 << 40} {
				t.Run(name, func(t *testing.T) {
					data := chainData(stride)
					if tc.emptyC {
						data[chainC] = nil
					}
					upper := chainPlan(tc.child, tc.parent, tc.floatKey, tc.residue)
					lower := upper.Left.(*plan.JoinNode)
					if _, ok := ReduceCols(upper, lower); ok != (tc.lowerRows < 7) {
						t.Fatalf("ReduceCols = %v, want %v", ok, tc.lowerRows < 7)
					}
					want := chainRef(data, tc.child, tc.parent, tc.floatKey, tc.residue)
					if tc.name == "inner" && len(want) == 0 {
						t.Fatal("reference chain is empty")
					}

					env := chainEnv(data)
					builds, err := PrepareBuilds(upper, env)
					if err != nil {
						t.Fatal(err)
					}
					if n := builds[lower].batch.N; n != tc.lowerRows {
						t.Fatalf("lower build holds %d rows, want %d", n, tc.lowerRows)
					}
					// An empty build fits the direct layout in no slots.
					if direct := builds[lower].table.direct != nil; direct != (directJoins && (stride == 1 || tc.lowerRows == 0)) {
						t.Fatalf("lower build direct = %v at stride %d", direct, stride)
					}
					env.JoinBuilds = builds
					op, err := BuildWith(upper, env)
					if err != nil {
						t.Fatal(err)
					}
					out, err := Collect(op)
					if err != nil {
						t.Fatal(err)
					}
					var got []string
					for r := 0; r < out.N; r++ {
						got = append(got, rowString(out.Row(r)))
					}
					if !slices.Equal(got, want) {
						t.Fatalf("rows:\n got  %q\n want %q", got, want)
					}
				})
			}
		})
	}
}

// TestReduceColsRule pins when a join's build may be reduced by the join
// above it.
func TestReduceColsRule(t *testing.T) {
	upper := chainPlan(plan.JoinInner, plan.JoinInner, false, false)
	if cols, ok := ReduceCols(upper, upper.Left.(*plan.JoinNode)); !ok || !slices.Equal(cols, []int{1}) {
		t.Fatalf("ReduceCols = %v, %v; want [1], true", cols, ok)
	}
	for name, mutate := range map[string]func(u, l *plan.JoinNode){
		"upper key on the probe table": func(u, l *plan.JoinNode) { u.LeftKeys = []plan.BoundExpr{colRef(0, col.INT64)} },
		"upper key an expression": func(u, l *plan.JoinNode) {
			u.LeftKeys = []plan.BoundExpr{&plan.BBinary{Op: "+", L: colRef(3, col.INT64), R: colRef(3, col.INT64), Ty: col.INT64}}
		},
		"not the probe side": func(u, l *plan.JoinNode) { u.Left = &plan.FilterNode{Child: l} },
		"cross upper":        func(u, l *plan.JoinNode) { u.Kind, u.LeftKeys, u.RightKeys = plan.JoinCross, nil, nil },
		"left lower":         func(u, l *plan.JoinNode) { l.Kind = plan.JoinLeft },
	} {
		u := chainPlan(plan.JoinInner, plan.JoinInner, false, false)
		l := u.Left.(*plan.JoinNode)
		mutate(u, l)
		if _, ok := ReduceCols(u, l); ok {
			t.Errorf("%s: ReduceCols allowed a reduction", name)
		}
	}
}
