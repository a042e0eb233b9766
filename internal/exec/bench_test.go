package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/plan"
)

// BenchmarkJoinGroupByBuildString is top-customers' shape at SF 0.5: 75,000
// orders probe a 7,500-row customer build, group on the build's c_name and
// keep the top 10 totals. One op prepares the build, probes every batch
// and sorts the groups.
func BenchmarkJoinGroupByBuildString(b *testing.B) {
	const customers, orders, batch = 7500, 75000, 4096
	cust := chainTable("customer", []catalog.Column{{Name: "c_custkey", Type: col.INT64}, {Name: "c_name", Type: col.STRING}})
	ord := chainTable("orders", []catalog.Column{{Name: "o_custkey", Type: col.INT64}, {Name: "o_totalprice", Type: col.FLOAT64}})
	key, name := col.NewVector(col.INT64, customers), col.NewVector(col.STRING, customers)
	for i := range customers {
		key.Ints[i] = int64(i + 1)
		name.Strs[i] = fmt.Sprintf("Customer#%09d", i+1)
	}
	data := map[*plan.ScanNode][]*col.Batch{cust: {col.NewBatch(key, name)}}
	r := rand.New(rand.NewSource(11))
	for from := 0; from < orders; from += batch {
		n := min(batch, orders-from)
		ck, price := col.NewVector(col.INT64, n), col.NewVector(col.FLOAT64, n)
		for i := range n {
			ck.Ints[i] = int64(1 + r.Intn(customers))
			price.Floats[i] = 1000 + float64(r.Intn(400000))/100
		}
		data[ord] = append(data[ord], col.NewBatch(ck, price))
	}
	join := &plan.JoinNode{Kind: plan.JoinInner, Left: ord, Right: cust,
		LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
	agg := &plan.AggNode{Child: join, GroupBy: []plan.BoundExpr{colRef(3, col.STRING)}, GroupNames: []string{"c_name"},
		Aggs: []plan.AggSpec{{Func: plan.AggSum, Arg: colRef(1, col.FLOAT64), Ty: col.FLOAT64, Name: "total"}}}
	top := &plan.TopNNode{Child: agg, Keys: []plan.SortKey{{Ordinal: 1, Desc: true}}, N: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		env := chainEnv(data)
		builds, err := PrepareBuilds(top, env)
		if err != nil {
			b.Fatal(err)
		}
		env.JoinBuilds = builds
		op, err := BuildWith(top, env)
		if err != nil {
			b.Fatal(err)
		}
		out, err := Collect(op)
		if err != nil || out.N != 10 {
			b.Fatalf("%v rows, %v", out, err)
		}
	}
}
