package engine

import (
	"context"
	"testing"

	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/sql"
)

// runScanAgg plans and runs the canonical scan+filter+agg shape at a
// given VM-side width.
func runScanAgg(t *testing.T, e *Engine, parallelism int) *Result {
	t.Helper()
	ctx := context.Background()
	stmt, err := sql.Parse("SELECT f_cat, COUNT(*), SUM(f_val), AVG(f_val) FROM fact WHERE f_val > 100 GROUP BY f_cat ORDER BY f_cat")
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanParallel(ctx, node, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameRows(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			if !a.Rows[i][c].Equal(b.Rows[i][c]) {
				return false
			}
		}
	}
	return true
}

// TestCacheWarmScanFewerStoreReads is the acceptance shape of the cache
// layer: a warm rerun of the same plan issues strictly fewer (here: zero)
// physical store requests than the cold run, returns identical rows, and
// bills identical bytes-scanned — with or without the cache at all.
func TestCacheWarmScanFewerStoreReads(t *testing.T) {
	met := objstore.NewMetered(objstore.NewMemory())
	cs := cache.New(met, cache.Config{})
	cached := newPartitionedEngineOn(t, cs, 4, 8192)
	plain := newPartitionedEngine(t, 4, 8192) // identical data, no cache

	base := runScanAgg(t, plain, 1)

	met.Reset()
	cold := runScanAgg(t, cached, 1)
	coldUse, coldHits := met.Usage(), cs.Stats().Hits

	warm := runScanAgg(t, cached, 1)
	warmUse := met.Usage().Sub(coldUse)

	if !sameRows(base, cold) || !sameRows(base, warm) {
		t.Fatalf("cached results diverge from uncached baseline")
	}
	if base.Stats.BytesScanned != cold.Stats.BytesScanned ||
		base.Stats.BytesScanned != warm.Stats.BytesScanned {
		t.Fatalf("billed bytes-scanned differ: uncached %d, cold %d, warm %d",
			base.Stats.BytesScanned, cold.Stats.BytesScanned, warm.Stats.BytesScanned)
	}
	if coldUse.Gets == 0 {
		t.Fatalf("cold run issued no store requests — metering broken")
	}
	if warmUse.Gets != 0 || warmUse.Heads != 0 {
		t.Fatalf("warm run still touched the store: %d gets, %d heads (cold: %d gets)",
			warmUse.Gets, warmUse.Heads, coldUse.Gets)
	}
	if cold.Stats.CacheMisses == 0 {
		t.Fatalf("cold run reported no cache misses: %+v", cold.Stats)
	}
	if warm.Stats.CacheHits == 0 || warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm run cache stats = %d hits / %d misses, want all hits",
			warm.Stats.CacheHits, warm.Stats.CacheMisses)
	}
	if hits := cs.Stats().Hits - coldHits; hits != warm.Stats.CacheHits {
		t.Fatalf("cache counted %d hits over the warm run, the query %d", hits, warm.Stats.CacheHits)
	}
	// The uncached engine reports no cache activity at all.
	if base.Stats.CacheHits != 0 || base.Stats.CacheMisses != 0 {
		t.Fatalf("uncached engine reported cache stats: %+v", base.Stats)
	}
}

// TestCacheParallelScan runs the parallel VM path over a shared cache:
// serial and parallel execution must agree bit-for-bit on rows and billed
// bytes, cold and warm. Run with -race: workers of one query contend on
// the same cache shards and single-flight calls.
func TestCacheParallelScan(t *testing.T) {
	cs := cache.New(objstore.NewMemory(), cache.Config{})
	e := newPartitionedEngineOn(t, cs, 8, 4096)

	serial := runScanAgg(t, e, 1)   // cold
	parallel := runScanAgg(t, e, 4) // warm-ish, partitioned across workers
	again := runScanAgg(t, e, 4)    // fully warm

	if !sameRows(serial, parallel) || !sameRows(serial, again) {
		t.Fatalf("parallel cached run diverges from serial")
	}
	if serial.Stats.BytesScanned != parallel.Stats.BytesScanned ||
		serial.Stats.BytesScanned != again.Stats.BytesScanned {
		t.Fatalf("billed bytes differ: serial %d, parallel %d, warm %d",
			serial.Stats.BytesScanned, parallel.Stats.BytesScanned, again.Stats.BytesScanned)
	}
	if again.Stats.CacheHits == 0 {
		t.Fatalf("fully warm parallel run recorded no cache hits")
	}
}

// TestCacheCFIntermediates checks the CF path through the cache: worker
// intermediates written via Put are readable (invalidation correctness)
// and intermediate bytes stay out of the billed scan count.
func TestCacheCFIntermediates(t *testing.T) {
	cs := cache.New(objstore.NewMemory(), cache.Config{})
	e := newPartitionedEngineOn(t, cs, 4, 2048)
	plain := newPartitionedEngine(t, 4, 2048)

	run := func(e *Engine) *Result {
		t.Helper()
		stmt, err := sql.Parse("SELECT f_cat, COUNT(*), SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat")
		if err != nil {
			t.Fatal(err)
		}
		node, err := e.PlanQuery("db", stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		split, err := e.SplitForCF(node, "cf-cache-test", 4)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runSplitCF(t, e, split)
		return res
	}
	a := run(plain)
	b := run(e)
	if !sameRows(a, b) || a.Stats.BytesScanned != b.Stats.BytesScanned {
		t.Fatalf("CF path through cache diverges: bytes %d vs %d", a.Stats.BytesScanned, b.Stats.BytesScanned)
	}
	if b.Stats.BytesIntermediate == 0 {
		t.Fatalf("CF run read no intermediates — split did not execute")
	}
}

// TestCachedReadHitAllocatesNothing: a read-cache hit lands in the
// reader's buffer when its capacity suffices, across a block boundary
// too, and allocates nothing; it still counts one hit per read.
func TestCachedReadHitAllocatesNothing(t *testing.T) {
	cs := cache.New(objstore.NewMemory(), cache.Config{})
	data := make([]byte, 600<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := cs.Put("k", data); err != nil {
		t.Fatal(err)
	}
	var stats Stats
	sc := &scanContext{stats: &stats}
	obj, err := cs.Open("k")
	if err != nil {
		t.Fatal(err)
	}
	off, length := int64(250<<10), int64(20<<10) // spans two 256 KiB blocks
	buf, err := sc.read(obj, off, length, nil)   // the miss fills the blocks
	if err != nil {
		t.Fatal(err)
	}
	buf = buf[:0:cap(buf)]
	if n := testing.AllocsPerRun(50, func() {
		got, err := sc.read(obj, off, length, buf)
		if err != nil || &got[0] != &buf[:1][0] || string(got) != string(data[off:off+length]) {
			t.Fatalf("hit did not read the range into buf: %v", err)
		}
	}); n != 0 {
		t.Fatalf("cache hit allocates %.1f times per read, want 0", n)
	}
	if stats.CacheMisses != 1 || stats.CacheHits != 51 {
		t.Fatalf("hits %d, misses %d; want 51 and 1", stats.CacheHits, stats.CacheMisses)
	}
}
