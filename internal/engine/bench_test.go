package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
)

// benchEngine loads a 100k-row fact table once per benchmark binary.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE dim (d_key BIGINT NOT NULL, d_name VARCHAR NOT NULL)",
		"CREATE TABLE fact (f_key BIGINT NOT NULL, f_dim BIGINT NOT NULL, f_val DOUBLE NOT NULL, f_cat VARCHAR NOT NULL)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			b.Fatal(err)
		}
	}
	for d := 0; d < 16; d++ {
		if _, err := e.Execute(ctx, "db", fmt.Sprintf("INSERT INTO dim VALUES (%d, 'dim-%d')", d, d)); err != nil {
			b.Fatal(err)
		}
	}
	const n = 100_000
	k := col.NewVector(col.INT64, n)
	dm := col.NewVector(col.INT64, n)
	v := col.NewVector(col.FLOAT64, n)
	c := col.NewVector(col.STRING, n)
	cats := []string{"x", "y", "z", "w"}
	for i := 0; i < n; i++ {
		k.Ints[i] = int64(i)
		dm.Ints[i] = int64(i % 16)
		v.Floats[i] = float64(i%1000) / 10
		c.Strs[i] = cats[i%4]
	}
	if err := e.LoadBatch("db", "fact", col.NewBatch(k, dm, v, c), pixfile.WriterOptions{RowGroupSize: 8192}); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchQuery(b *testing.B, e *Engine, q string) {
	b.Helper()
	ctx := context.Background()
	stmt, err := sql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.RunPlan(ctx, node)
		if err != nil {
			b.Fatal(err)
		}
		bytes += res.Stats.BytesScanned
	}
	b.SetBytes(bytes / int64(b.N))
}

// BenchmarkEngineScan measures a full single-column scan.
func BenchmarkEngineScan(b *testing.B) {
	benchQuery(b, benchEngine(b), "SELECT SUM(f_val) FROM fact")
}

// BenchmarkEngineFilterAgg measures filter + grouped aggregation.
func BenchmarkEngineFilterAgg(b *testing.B) {
	benchQuery(b, benchEngine(b), "SELECT f_cat, COUNT(*), AVG(f_val) FROM fact WHERE f_val > 50 GROUP BY f_cat")
}

// BenchmarkEngineZoneMapPointLookup measures a pruned point query.
func BenchmarkEngineZoneMapPointLookup(b *testing.B) {
	benchQuery(b, benchEngine(b), "SELECT f_val FROM fact WHERE f_key = 77777")
}

// BenchmarkEngineHashJoin measures a fact-dim join with aggregation.
func BenchmarkEngineHashJoin(b *testing.B) {
	benchQuery(b, benchEngine(b), `SELECT d.d_name, SUM(f.f_val) FROM fact f, dim d
		WHERE f.f_dim = d.d_key GROUP BY d.d_name ORDER BY d.d_name`)
}

// BenchmarkEngineTopN measures a bounded sort + limit.
func BenchmarkEngineTopN(b *testing.B) {
	benchQuery(b, benchEngine(b), "SELECT f_key, f_val FROM fact ORDER BY f_val DESC LIMIT 10")
}

// BenchmarkEngineCFSplit measures the full CF path: split, 4 workers,
// merge.
func BenchmarkEngineCFSplit(b *testing.B) {
	e := benchEngine(b)
	stmt, _ := sql.Parse("SELECT f_cat, COUNT(*), SUM(f_val) FROM fact GROUP BY f_cat")
	sel := stmt.(*sql.Select)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			b.Fatal(err)
		}
		split, err := e.SplitForCF(node, fmt.Sprintf("bench-%d", i), 4)
		if err != nil {
			b.Fatal(err)
		}
		runSplitCF(b, e, split)
	}
}

// BenchmarkFragmentCodec times the CF fragment codec over the shapes
// cf_spill sends: a partial aggregate, a partial aggregate probing a join,
// a worker top-N, a filtered global sum and a point lookup's scan
// pushdown. Encode is SplitForCF's one encode per split; decode is each
// worker's, checks included. B/frag is the encoded size.
func BenchmarkFragmentCodec(b *testing.B) {
	e := newPartitionedEngine(b, 8, 100)
	for _, q := range []struct{ name, text string }{
		{"partial-agg", "SELECT f_cat, COUNT(*), SUM(f_val), SUM(f_key) FROM fact WHERE f_key <= 700 GROUP BY f_cat ORDER BY f_cat"},
		{"segment-join", "SELECT d_name, COUNT(*), SUM(f_val) FROM fact, dim WHERE f_dim = d_key AND f_val > 300 GROUP BY d_name ORDER BY d_name"},
		{"topn", "SELECT f_key, f_val FROM fact ORDER BY f_val DESC, f_key LIMIT 11"},
		{"forecast", "SELECT SUM(f_val * f_dim) FROM fact WHERE f_key >= 100 AND f_key < 500 AND f_val BETWEEN 10 AND 30 AND f_dim < 8"},
		{"point-lookup", "SELECT f_key, f_cat, f_val FROM fact WHERE f_key = 123"},
	} {
		stmt, err := sql.Parse(q.text)
		if err != nil {
			b.Fatal(err)
		}
		node, err := e.PlanQuery("db", stmt.(*sql.Select))
		if err != nil {
			b.Fatal(err)
		}
		split, err := e.SplitForCF(node, "bench", 8)
		if err != nil {
			b.Fatal(err)
		}
		frag, _, err := decodeWorkerPlan(split.fragment)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.EncodeFragment(frag); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(split.fragment)), "B/frag")
		})
		b.Run(q.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeWorkerPlan(split.fragment); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelBenchEngine lazily loads one shared multi-file fact table (16
// files × 50k rows) for the serial-vs-parallel comparison benchmarks.
var parallelBenchEngine struct {
	once sync.Once
	e    *Engine
}

func benchPartitionedEngine(b *testing.B) *Engine {
	b.Helper()
	parallelBenchEngine.once.Do(func() {
		parallelBenchEngine.e = newPartitionedEngine(b, 16, 50_000)
	})
	// A setup failure in an earlier benchmark leaves the once done with a
	// nil engine; fail cleanly instead of nil-panicking.
	if parallelBenchEngine.e == nil {
		b.Fatal("shared bench engine setup failed in an earlier benchmark")
	}
	return parallelBenchEngine.e
}

// benchParallelQuery runs one query through RunPlanParallel at a given
// VM-side width on the shared partitioned engine, reporting allocations so
// the typed hash paths are accountable in -benchmem output.
func benchParallelQuery(b *testing.B, query string, parallelism int) {
	e := benchPartitionedEngine(b)
	ctx := context.Background()
	stmt, err := sql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.RunPlanParallel(ctx, node, parallelism)
		if err != nil {
			b.Fatal(err)
		}
		bytes += res.Stats.BytesScanned
	}
	b.SetBytes(bytes / int64(b.N))
}

// benchScanAgg runs the canonical partition-parallel shape — scan + filter
// + grouped aggregation — at a given VM-side width.
func benchScanAgg(b *testing.B, parallelism int) {
	benchParallelQuery(b, "SELECT f_cat, COUNT(*), SUM(f_val), AVG(f_val) FROM fact WHERE f_val > 100 GROUP BY f_cat", parallelism)
}

// BenchmarkSerialScanAgg is the single-threaded baseline for
// BenchmarkParallelScanAgg.
func BenchmarkSerialScanAgg(b *testing.B) { benchScanAgg(b, 1) }

// BenchmarkParallelScanAgg measures the intra-query parallel VM path at
// width 4 over the same query and data as BenchmarkSerialScanAgg.
func BenchmarkParallelScanAgg(b *testing.B) { benchScanAgg(b, 4) }

// benchJoinAgg runs the merge-side join shape: fact partitions probe one
// shared dimension build table, partial aggregation rides in the workers.
func benchJoinAgg(b *testing.B, parallelism int) {
	benchParallelQuery(b, `SELECT d_name, COUNT(*), SUM(f_val) FROM fact, dim
		WHERE f_dim = d_key GROUP BY d_name ORDER BY d_name`, parallelism)
}

// BenchmarkSerialJoinAgg is the single-threaded baseline for
// BenchmarkParallelJoinAgg (same typed hash join, no partitioning).
func BenchmarkSerialJoinAgg(b *testing.B) { benchJoinAgg(b, 1) }

// BenchmarkParallelJoinAgg measures the shared-build partitioned hash join
// at width 4.
func BenchmarkParallelJoinAgg(b *testing.B) { benchJoinAgg(b, 4) }

// benchTopN runs ORDER BY + LIMIT: serial runs one bounded sort; the
// parallel path runs one per worker and another over the k·N survivors.
func benchTopN(b *testing.B, parallelism int) {
	benchParallelQuery(b, "SELECT f_key, f_val FROM fact ORDER BY f_val DESC, f_key LIMIT 10", parallelism)
}

// BenchmarkSerialTopN is the single-threaded baseline for
// BenchmarkParallelTopN.
func BenchmarkSerialTopN(b *testing.B) { benchTopN(b, 1) }

// BenchmarkParallelTopN measures the worker top-N pushdown at width 4.
func BenchmarkParallelTopN(b *testing.B) { benchTopN(b, 4) }

// cachedBenchEngine lazily loads one shared fact table behind the
// CachingStore → Metered → Memory stack, so the cold/warm variants can
// report physical store GETs per op alongside ns/op.
var cachedBenchEngine struct {
	once sync.Once
	e    *Engine
	met  *objstore.Metered
	cs   *cache.CachingStore
}

func benchCachedEngine(b *testing.B) (*Engine, *objstore.Metered, *cache.CachingStore) {
	b.Helper()
	cachedBenchEngine.once.Do(func() {
		met := objstore.NewMetered(objstore.NewMemory())
		cs := cache.New(met, cache.Config{})
		cachedBenchEngine.e = newPartitionedEngineOn(b, cs, 16, 50_000)
		cachedBenchEngine.met = met
		cachedBenchEngine.cs = cs
	})
	if cachedBenchEngine.e == nil {
		b.Fatal("shared cached bench engine setup failed in an earlier benchmark")
	}
	return cachedBenchEngine.e, cachedBenchEngine.met, cachedBenchEngine.cs
}

// benchScanAggCached runs the same plan as benchScanAgg through the read
// cache. warm primes the cache once and keeps it; cold flushes before
// every iteration. Billed bytes-scanned are identical in both modes (and
// to the cacheless benchmarks) — only the physical store-gets/op and
// ns/op move.
func benchScanAggCached(b *testing.B, parallelism int, warm bool) {
	e, met, cs := benchCachedEngine(b)
	ctx := context.Background()
	stmt, err := sql.Parse("SELECT f_cat, COUNT(*), SUM(f_val), AVG(f_val) FROM fact WHERE f_val > 100 GROUP BY f_cat")
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	runOnce := func() int64 {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.RunPlanParallel(ctx, node, parallelism)
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats.BytesScanned
	}
	cs.Flush()
	if warm {
		runOnce()
	}
	met.Reset()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		if !warm {
			b.StopTimer()
			cs.Flush()
			met.Reset()
			b.StartTimer()
		}
		bytes += runOnce()
	}
	b.StopTimer()
	u := met.Usage()
	gets := float64(u.Gets)
	if warm {
		gets /= float64(b.N) // cold resets per iteration; warm accumulates
	}
	b.ReportMetric(gets, "store-gets/op")
	b.SetBytes(bytes / int64(b.N))
}

// Cold/warm cache variants of the ScanAgg benchmarks: same plan and data,
// differing only in cache residency. Warm runs must show near-zero
// store-gets/op and lower ns/op than cold; billed bytes are identical.
func BenchmarkSerialScanAggColdCache(b *testing.B)   { benchScanAggCached(b, 1, false) }
func BenchmarkSerialScanAggWarmCache(b *testing.B)   { benchScanAggCached(b, 1, true) }
func BenchmarkParallelScanAggColdCache(b *testing.B) { benchScanAggCached(b, 0, false) }
func BenchmarkParallelScanAggWarmCache(b *testing.B) { benchScanAggCached(b, 0, true) }

// BenchmarkPixfileWrite measures columnar encoding throughput.
func BenchmarkPixfileWrite(b *testing.B) {
	const n = 50_000
	k := col.NewVector(col.INT64, n)
	v := col.NewVector(col.FLOAT64, n)
	s := col.NewVector(col.STRING, n)
	for i := 0; i < n; i++ {
		k.Ints[i] = int64(i)
		v.Floats[i] = float64(i) * 1.5
		s.Strs[i] = []string{"AIR", "RAIL", "SHIP"}[i%3]
	}
	batch := col.NewBatch(k, v, s)
	schema := col.NewSchema(
		col.Field{Name: "k", Type: col.INT64},
		col.Field{Name: "v", Type: col.FLOAT64},
		col.Field{Name: "s", Type: col.STRING},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := pixfile.NewWriter(schema, pixfile.WriterOptions{})
		if err := w.Append(batch); err != nil {
			b.Fatal(err)
		}
		data, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}
