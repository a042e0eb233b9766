package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/plan"
)

// BenchmarkJoinGroupByBuildString groups 75,000 orders by a string of the
// 7,500-row customer build they probe, summing o_totalprice, and keeps the
// top 10 groups. top-customers is that statement's shape at SF 0.5: the
// group key is c_name, one distinct value per build row. segment-join's
// key is c_mktsegment, 5 distinct values over the 7,500 rows. One op
// prepares the build, probes every batch and sorts the groups.
func BenchmarkJoinGroupByBuildString(b *testing.B) {
	const customers, orders, batch = 7500, 75000, 4096
	for _, c := range []struct {
		name     string
		distinct int
	}{{"top-customers", customers}, {"segment-join", 5}} {
		b.Run(c.name, func(b *testing.B) {
			cust := chainTable("customer", []catalog.Column{{Name: "c_custkey", Type: col.INT64}, {Name: "c_name", Type: col.STRING}})
			ord := chainTable("orders", []catalog.Column{{Name: "o_custkey", Type: col.INT64}, {Name: "o_totalprice", Type: col.FLOAT64}})
			key, name := col.NewVector(col.INT64, customers), col.NewVector(col.STRING, customers)
			for i := range customers {
				key.Ints[i] = int64(i + 1)
				name.Strs[i] = fmt.Sprintf("Customer#%09d", i%c.distinct+1)
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
				if err != nil || out.N != min(10, c.distinct) {
					b.Fatalf("%v rows, %v", out, err)
				}
			}
		})
	}
}

// BenchmarkJoinProbeIntKey probes a 7,500-row build on one INT64 key with
// 300,000 rows, every row matching one build row. Dense keys 1..7,500 take
// the direct layout; keys spread a large stride apart hash. One op runs
// every probe batch through a HashJoinOp over the prepared build.
func BenchmarkJoinProbeIntKey(b *testing.B) {
	const builds, probes, batch = 7500, 300000, 4096
	for _, c := range []struct {
		name   string
		stride int64
	}{{"dense", 1}, {"sparse", 1 << 40}} {
		b.Run(c.name, func(b *testing.B) {
			key, val := col.NewVector(col.INT64, builds), col.NewVector(col.INT64, builds)
			for i := range builds {
				key.Ints[i], val.Ints[i] = int64(i+1)*c.stride, int64(i)
			}
			schema := col.NewSchema(col.Field{Name: "k", Type: col.INT64}, col.Field{Name: "v", Type: col.INT64})
			node := &plan.JoinNode{Kind: plan.JoinInner, Left: fakeNode(schema), Right: fakeNode(schema),
				LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
			build, err := PrepareJoinBuild(node, sliceSource(schema, col.NewBatch(key, val)), nil)
			if err != nil {
				b.Fatal(err)
			}
			if direct := build.table.direct != nil; direct != (directJoins && c.stride == 1) {
				b.Fatalf("direct layout = %v", direct)
			}
			r := rand.New(rand.NewSource(11))
			var probe []*col.Batch
			for from := 0; from < probes; from += batch {
				n := min(batch, probes-from)
				pk, pv := col.NewVector(col.INT64, n), col.NewVector(col.INT64, n)
				for i := range n {
					pk.Ints[i], pv.Ints[i] = int64(1+r.Intn(builds))*c.stride, int64(i)
				}
				probe = append(probe, col.NewBatch(pk, pv))
			}
			b.ResetTimer()
			for range b.N {
				op, err := NewHashJoinOp(node, sliceSource(schema, probe...), build)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := drain(op)
				if err != nil || rows != probes {
					b.Fatalf("%d rows, %v", rows, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/row")
		})
	}
}

// topnFloatBatches is lineitem-topn's input shape: rows in batches of
// 4,096, a FLOAT64 key spread like a price with cents and an INT64 key
// like an order key.
func topnFloatBatches(rows int) (*col.Schema, []*col.Batch) {
	const batch = 4096
	schema := col.NewSchema(col.Field{Name: "price", Type: col.FLOAT64}, col.Field{Name: "orderkey", Type: col.INT64})
	r := rand.New(rand.NewSource(11))
	var out []*col.Batch
	for from := 0; from < rows; from += batch {
		n := min(batch, rows-from)
		price, key := col.NewVector(col.FLOAT64, n), col.NewVector(col.INT64, n)
		for i := range n {
			price.Floats[i] = 900 + float64(r.Intn(10_400_000))/100
			key.Ints[i] = int64(1 + r.Intn(600_000))
		}
		out = append(out, col.NewBatch(price, key))
	}
	return schema, out
}

// topnFloatKeys is lineitem-topn's order: the FLOAT64 descending, then the
// INT64.
var topnFloatKeys = []plan.SortKey{{Ordinal: 0, Desc: true}, {Ordinal: 1}}

// BenchmarkTopNFloatKey is lineitem-topn's top-N: 300,000 rows in batches
// of 4,096 ordered by a FLOAT64 descending, then an INT64, LIMIT 11. One
// op sorts every batch into the bounded sort and emits its 11 rows.
func BenchmarkTopNFloatKey(b *testing.B) {
	const rows = 300_000
	schema, batches := topnFloatBatches(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		out, err := Collect(NewSortOp(topnFloatKeys, 11, sliceSource(schema, batches...)))
		if err != nil || out.N != 11 {
			b.Fatalf("%v rows, %v", out, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// drain opens op, pulls every batch and closes it, returning the rows.
func drain(op Operator) (int, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	rows := 0
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return rows, err
		}
		rows += b.N
	}
}
