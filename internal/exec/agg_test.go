package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// refAgg is the row-at-a-time aggregation oracle: every input row is boxed
// into a col.Value and folded with Value.Compare, the way aggregation was
// defined before the typed folds. COUNT(*) counts NULLs, every other
// aggregate skips them; integer SUM keeps both sums; DISTINCT dedupes on
// GROUP BY equality (-0.0 = 0.0, NaN = NaN); groups come out in first-
// appearance order and an empty global input gives one row.
func refAgg(node *plan.AggNode, rows [][]col.Value) [][]col.Value {
	type state struct {
		count    int64
		sumI     int64
		sumF     float64
		min, max col.Value
		hasMM    bool
		seen     map[string]bool
	}
	type group struct {
		keys   []col.Value
		states []state
	}
	var groups []*group
	byKey := map[string]*group{}
	newGroup := func(keys []col.Value) *group {
		g := &group{keys: keys, states: make([]state, len(node.Aggs))}
		groups = append(groups, g)
		return g
	}
	if len(node.GroupBy) == 0 {
		byKey[""] = newGroup(nil)
	}
	for _, row := range rows {
		keys := make([]col.Value, len(node.GroupBy))
		k := ""
		for i, g := range node.GroupBy {
			keys[i] = row[g.(*plan.BCol).Ordinal]
			k += canonKey(keys[i]) + "|"
		}
		g := byKey[k]
		if g == nil {
			g = newGroup(keys)
			byKey[k] = g
		}
		for i := range node.Aggs {
			spec, st := &node.Aggs[i], &g.states[i]
			if spec.Func == plan.AggCountStar {
				st.count++
				continue
			}
			v := row[spec.Arg.(*plan.BCol).Ordinal]
			if v.Null {
				continue
			}
			if spec.Distinct {
				if st.seen == nil {
					st.seen = map[string]bool{}
				}
				if st.seen[canonKey(v)] {
					continue
				}
				st.seen[canonKey(v)] = true
			}
			st.count++
			switch spec.Func {
			case plan.AggSum, plan.AggAvg:
				if v.Type == col.FLOAT64 {
					st.sumF += v.F
				} else {
					st.sumI += v.I
					st.sumF += float64(v.I)
				}
			case plan.AggMin, plan.AggMax:
				if !st.hasMM {
					st.min, st.max, st.hasMM = v, v, true
					continue
				}
				if v.Compare(st.min) < 0 {
					st.min = v
				}
				if v.Compare(st.max) > 0 {
					st.max = v
				}
			}
		}
	}
	out := make([][]col.Value, 0, len(groups))
	for _, g := range groups {
		row := append([]col.Value(nil), g.keys...)
		for i := range node.Aggs {
			spec, st := &node.Aggs[i], &g.states[i]
			var v col.Value
			switch spec.Func {
			case plan.AggCountStar, plan.AggCount:
				v = col.Int(st.count)
			case plan.AggSum:
				switch {
				case st.count == 0:
					v = col.NullValue(spec.Ty)
				case spec.Ty == col.INT64:
					v = col.Int(st.sumI)
				default:
					v = col.Float(st.sumF)
				}
			case plan.AggAvg:
				v = col.NullValue(col.FLOAT64)
				if st.count > 0 {
					v = col.Float(st.sumF / float64(st.count))
				}
			case plan.AggMin:
				v = col.NullValue(spec.Ty)
				if st.hasMM {
					v = st.min
				}
			case plan.AggMax:
				v = col.NullValue(spec.Ty)
				if st.hasMM {
					v = st.max
				}
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

// canonKey renders a value under GROUP BY equality.
func canonKey(v col.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Type == col.FLOAT64 && v.F == 0:
		return "f:0"
	case v.Type == col.FLOAT64 && v.F != v.F:
		return "f:NaN"
	case v.Type == col.FLOAT64:
		return "f:" + strconv.FormatUint(math.Float64bits(v.F), 16)
	case v.Type == col.STRING || v.Type == col.BOOL:
		return fmt.Sprintf("%d:%s", v.Type, v.String())
	}
	// INT64, DATE, TIMESTAMP: the raw integer, since a timestamp prints at
	// a coarser grain than it is stored.
	return fmt.Sprintf("%d:%d", v.Type, v.I)
}

// sameValue is bit-exact equality: floats compare by math.Float64bits, so
// -0.0 ≠ 0.0. Any two NaNs are equal: Go leaves the payload of NaN + NaN
// to the compiler's operand order.
func sameValue(a, b col.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.Type != b.Type {
		return false
	}
	if a.Type == col.FLOAT64 {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (a.F != a.F && b.F != b.F)
	}
	return a.Equal(b)
}

// aggPropTypes are the property test's columns: every type the binder lets
// an aggregate or group key take.
var aggPropTypes = []col.Type{col.INT64, col.FLOAT64, col.DATE, col.TIMESTAMP, col.STRING, col.BOOL}

var aggPropFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.25, 1e300, 3}

// randAggBatch builds an n-row batch over aggPropTypes from small domains,
// so groups and DISTINCT values collide. Roughly a third of the rows of a
// column are NULL; some vectors have no validity mask at all.
func randAggBatch(r *rand.Rand, n int) *col.Batch {
	vecs := make([]*col.Vector, len(aggPropTypes))
	for c, ty := range aggPropTypes {
		v := col.NewVector(ty, n)
		nullable := r.Intn(4) != 0
		for i := 0; i < n; i++ {
			switch ty {
			case col.INT64, col.DATE, col.TIMESTAMP:
				v.Ints[i] = int64(r.Intn(7) - 3)
			case col.FLOAT64:
				v.Floats[i] = aggPropFloats[r.Intn(len(aggPropFloats))]
			case col.STRING:
				v.Strs[i] = []string{"", "a", "ab", "b", "ba"}[r.Intn(5)]
			case col.BOOL:
				v.Bools[i] = r.Intn(2) == 0
			}
			if nullable && r.Intn(3) == 0 {
				v.SetNull(i)
			}
		}
		vecs[c] = v
	}
	return &col.Batch{Vecs: vecs, N: n}
}

// randAggNode draws 0–2 group keys and 1–6 aggregates, each a function ×
// argument type the binder admits, DISTINCT included.
func randAggNode(r *rand.Rand, schema *col.Schema) *plan.AggNode {
	node := &plan.AggNode{Child: fakeNode(schema)}
	for k := r.Intn(3); k > 0; k-- {
		c := r.Intn(len(aggPropTypes))
		node.GroupBy = append(node.GroupBy, colRef(c, aggPropTypes[c]))
		node.GroupNames = append(node.GroupNames, fmt.Sprintf("k%d", len(node.GroupBy)))
	}
	for a := 1 + r.Intn(6); a > 0; a-- {
		c := r.Intn(len(aggPropTypes))
		ty := aggPropTypes[c]
		spec := plan.AggSpec{Arg: colRef(c, ty), Distinct: r.Intn(3) == 0, Name: fmt.Sprintf("a%d", len(node.Aggs))}
		switch fn := plan.AggFunc(r.Intn(6)); {
		case fn == plan.AggCountStar:
			spec = plan.AggSpec{Func: fn, Name: spec.Name, Ty: col.INT64}
		case fn == plan.AggCount:
			spec.Func, spec.Ty = fn, col.INT64
		case (fn == plan.AggSum || fn == plan.AggAvg) && ty.Numeric():
			spec.Func, spec.Ty = fn, ty
			if fn == plan.AggAvg {
				spec.Ty = col.FLOAT64
			}
		case fn == plan.AggMin || fn == plan.AggMax:
			spec.Func, spec.Ty = fn, ty
		default: // SUM/AVG over a non-number: the binder rejects it
			spec.Func, spec.Ty = plan.AggMax, ty
		}
		node.Aggs = append(node.Aggs, spec)
	}
	return node
}

// TestHashAggMatchesReference: HashAggOp must agree bit for bit with the
// row-at-a-time oracle on random NULL-heavy input cut at random batch
// boundaries (empty batches and empty input included), for 0–2 group keys
// of every type, every aggregate × argument type and DISTINCT.
func TestHashAggMatchesReference(t *testing.T) {
	fields := make([]col.Field, len(aggPropTypes))
	for c, ty := range aggPropTypes {
		fields[c] = col.Field{Name: fmt.Sprintf("c%d", c), Type: ty, Nullable: true}
	}
	schema := col.NewSchema(fields...)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		node := randAggNode(r, schema)
		var batches []*col.Batch
		var rows [][]col.Value
		for nb := r.Intn(5); nb > 0; nb-- {
			b := randAggBatch(r, r.Intn(80))
			batches = append(batches, b)
			for i := 0; i < b.N; i++ {
				rows = append(rows, b.Row(i))
			}
		}
		want := refAgg(node, rows)
		out, err := Collect(NewHashAggOp(node, sliceSource(schema, batches...)))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d: GROUP BY %v aggs %v over %d rows", trial, node.GroupBy, node.Aggs, len(rows))
		if out.N != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, out.N, len(want))
		}
		for g := range want {
			got := out.Row(g)
			for c := range want[g] {
				if !sameValue(got[c], want[g][c]) {
					t.Fatalf("%s: group %d column %d = %v, want %v", label, g, c, got[c], want[g][c])
				}
			}
		}
	}
}
