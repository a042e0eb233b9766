package pixelsdb

import (
	"context"
	"testing"
)

// TestOpenWithCache exercises the cache end to end through the public
// API: Options enable it, repeated queries hit it, billed bytes stay
// identical, the hit/miss counters surface in query stats and the
// DB-level snapshot, and a warm run leaves the store silent.
func TestOpenWithCache(t *testing.T) {
	db, err := Open(Options{CacheSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.01); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const q = "SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus"
	first, err := db.Execute(ctx, "tpch", q)
	if err != nil {
		t.Fatal(err)
	}
	cold := db.StoreUsage()
	second, err := db.Execute(ctx, "tpch", q)
	if err != nil {
		t.Fatal(err)
	}

	if first.Stats.BytesScanned != second.Stats.BytesScanned {
		t.Fatalf("billed bytes changed between cold and warm run: %d vs %d",
			first.Stats.BytesScanned, second.Stats.BytesScanned)
	}
	if warm := db.StoreUsage().Sub(cold); warm.Gets != 0 || warm.Heads != 0 {
		t.Fatalf("warm run reached the store: %+v", warm)
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(first.Rows), len(second.Rows))
	}
	if first.Stats.CacheMisses == 0 {
		t.Fatalf("cold run reported no cache misses: %+v", first.Stats)
	}
	if second.Stats.CacheHits == 0 {
		t.Fatalf("warm run reported no cache hits: %+v", second.Stats)
	}

	stats, ok := db.CacheStats()
	if !ok || stats.Hits == 0 {
		t.Fatalf("CacheStats = %+v, ok=%v", stats, ok)
	}

	// The scheduled path (VM slot, possibly parallel) reads through the
	// same cache.
	qh, err := db.Submit("tpch", "SELECT COUNT(*) FROM orders", Immediate)
	if err != nil {
		t.Fatal(err)
	}
	<-qh.Done()
	if err := qh.Err(); err != nil {
		t.Fatal(err)
	}
	if res := qh.Result(); res == nil || res.Stats.CacheHits+res.Stats.CacheMisses == 0 {
		t.Fatalf("scheduled query reported no cache activity: %+v", res)
	}
}

// TestOpenWithoutCache pins the default: no cache, no cache counters
// anywhere — the paper-calibrated baseline.
func TestOpenWithoutCache(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.005); err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(context.Background(), "tpch", "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 0 || res.Stats.CacheMisses != 0 {
		t.Fatalf("cacheless run reported cache stats: %+v", res.Stats)
	}
	if _, ok := db.CacheStats(); ok {
		t.Fatalf("CacheStats ok=true with cache disabled")
	}
}
