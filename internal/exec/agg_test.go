package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/col"
	"repro/internal/oracle"
	"repro/internal/plan"
)

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
		want := oracle.Agg(node, rows)
		out, err := Collect(must(NewHashAggOp(node, sliceSource(schema, batches...))))
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
				if !oracle.SameValue(got[c], want[g][c]) {
					t.Fatalf("%s: group %d column %d = %v, want %v", label, g, c, got[c], want[g][c])
				}
			}
		}
	}
}
