package pixelsdb

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/billing"
)

func openCached(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.LoadSampleData("tpch", 0.005); err != nil {
		t.Fatal(err)
	}
	return db
}

func waitQuery(t *testing.T, q *Query) {
	t.Helper()
	select {
	case <-q.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("query timed out")
	}
	if q.Err() != nil {
		t.Fatal(q.Err())
	}
}

// The storm test: N concurrent submissions of one query with the result
// cache on must execute exactly once (single-flight), return bit-identical
// rows everywhere, and bill the execution once — every other bill is a
// cache hit with zero bytes scanned and zero list price.
func TestResultCacheStormSingleFlight(t *testing.T) {
	db := openCached(t, Options{PlanCache: true, ResultCacheMB: 8})
	const N = 16
	const stmt = "SELECT o_custkey, SUM(o_totalprice) FROM orders WHERE o_totalprice > 100 GROUP BY o_custkey ORDER BY o_custkey"

	queries := make([]*Query, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, err := db.Submit("tpch", stmt, Immediate)
			if err != nil {
				t.Error(err)
				return
			}
			<-q.Done()
			queries[i] = q
		}(i)
	}
	wg.Wait()

	var want string
	for i, q := range queries {
		if q == nil {
			t.Fatalf("query %d missing", i)
		}
		if q.Err() != nil {
			t.Fatalf("query %d: %v", i, q.Err())
		}
		res := q.Result()
		if res == nil || len(res.Rows) == 0 {
			t.Fatalf("query %d: empty result", i)
		}
		rows := fmt.Sprint(res.Rows)
		if want == "" {
			want = rows
		} else if rows != want {
			t.Fatalf("query %d rows diverge:\n%s\nvs\n%s", i, rows, want)
		}
	}

	bills := db.Ledger().All()
	if len(bills) != N {
		t.Fatalf("ledger has %d bills, want %d", len(bills), N)
	}
	executed, hits := 0, 0
	for _, b := range bills {
		if b.CacheHit {
			hits++
			if b.BytesScanned != 0 || b.ListPrice != 0 {
				t.Errorf("cache hit billed: bytes=%d price=%f", b.BytesScanned, b.ListPrice)
			}
		} else {
			executed++
			if b.BytesScanned <= 0 {
				t.Errorf("the executing query scanned %d bytes", b.BytesScanned)
			}
		}
	}
	if executed != 1 || hits != N-1 {
		t.Fatalf("executed=%d hits=%d, want 1 and %d", executed, hits, N-1)
	}
	if got := db.Coordinator().CacheHitCount(); got != N-1 {
		t.Fatalf("coordinator cache hits = %d, want %d", got, N-1)
	}
}

// Cached results must be byte-for-byte what an uncached system returns.
func TestCachedRowsBitIdentical(t *testing.T) {
	const stmt = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 500 ORDER BY o_orderkey LIMIT 20"
	plain := openCached(t, Options{})
	cached := openCached(t, Options{PlanCache: true, ResultCacheMB: 8})

	q, err := plain.Submit("tpch", stmt, Immediate)
	if err != nil {
		t.Fatal(err)
	}
	waitQuery(t, q)
	want := fmt.Sprint(q.Result().Rows)

	// First run fills, second serves from cache.
	for i := 0; i < 2; i++ {
		cq, err := cached.Submit("tpch", stmt, Immediate)
		if err != nil {
			t.Fatal(err)
		}
		waitQuery(t, cq)
		if got := fmt.Sprint(cq.Result().Rows); got != want {
			t.Fatalf("run %d rows diverge:\n%s\nvs\n%s", i, got, want)
		}
	}
	last, err := cached.Submit("tpch", stmt, Immediate)
	if err != nil {
		t.Fatal(err)
	}
	waitQuery(t, last)
	res := last.Result()
	if !res.Cached {
		t.Fatal("third run not served from cache")
	}
	if res.Origin == nil || res.Origin.BytesScanned <= 0 {
		t.Fatalf("hit lost the original execution stats: %+v", res.Origin)
	}
}

// A generation bump on a referenced table must force re-execution and
// re-billing; DDL/DML on unrelated tables must not evict.
func TestResultCacheGenerationInvalidation(t *testing.T) {
	db := openCached(t, Options{PlanCache: true, ResultCacheMB: 8})
	ctx := context.Background()
	const stmt = "SELECT COUNT(*) FROM orders"

	run := func() *Query {
		q, err := db.Submit("tpch", stmt, Immediate)
		if err != nil {
			t.Fatal(err)
		}
		waitQuery(t, q)
		return q
	}

	run() // fill
	if q := run(); !q.Result().Cached {
		t.Fatal("warm repeat missed")
	}

	// Unrelated DDL + DML: entry stays valid.
	if _, err := db.Execute(ctx, "tpch", "CREATE TABLE scratchpad (x BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(ctx, "tpch", "INSERT INTO scratchpad VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if q := run(); !q.Result().Cached {
		t.Fatal("unrelated DDL evicted the entry")
	}

	// Touching the referenced table bumps its generation: the old key is
	// unreachable, the query re-executes and is billed again.
	before := countExecutedBills(db.Ledger())
	if _, err := db.Execute(ctx, "tpch",
		"INSERT INTO orders VALUES (999999, 1, 'O', 42.5, '1995-01-01', '1-URGENT')"); err != nil {
		t.Fatalf("could not mutate orders: %v", err)
	}
	q := run()
	if q.Result().Cached {
		t.Fatal("stale result served after a generation bump")
	}
	if got := countExecutedBills(db.Ledger()); got != before+1 {
		t.Fatalf("executed bills %d, want %d (re-billed after invalidation)", got, before+1)
	}
	// COUNT reflects the new row — the freshest proof the result is new.
	if q2 := run(); !q2.Result().Cached {
		t.Fatal("re-filled entry missed")
	}
}

func countExecutedBills(l *billing.Ledger) int {
	n := 0
	for _, b := range l.All() {
		if !b.CacheHit && b.Status == "finished" {
			n++
		}
	}
	return n
}

// Plan-cache-only mode (no result cache) must execute every submission yet
// reuse the bound plan.
func TestPlanCacheOnlyAblation(t *testing.T) {
	db := openCached(t, Options{PlanCache: true})
	const stmt = "SELECT COUNT(*) FROM customer"
	for i := 0; i < 3; i++ {
		q, err := db.Submit("tpch", stmt, Immediate)
		if err != nil {
			t.Fatal(err)
		}
		waitQuery(t, q)
		if q.Result().Cached {
			t.Fatal("result served from cache with the result cache off")
		}
	}
	snap := db.QueryCache().Snapshot()
	if snap.Plan.Hits != 2 || snap.Plan.Misses != 1 {
		t.Fatalf("plan hits/misses = %d/%d, want 2/1", snap.Plan.Hits, snap.Plan.Misses)
	}
	if snap.Result.Capacity != 0 {
		t.Fatalf("result cache unexpectedly on: %+v", snap.Result)
	}
	for _, b := range db.Ledger().All() {
		if b.CacheHit || b.BytesScanned <= 0 {
			t.Fatalf("plan-cache-only bill looks cached: %+v", b)
		}
	}
}

// Two statements whose plans render the same operator labels must not
// share a result-cache entry: IN ('A, B') is one string and IN ('A', 'B')
// two, so over the rows 'A, B', 'A' and 'B' they count 1 and 2.
func TestResultCacheKeysTheStatement(t *testing.T) {
	db, err := Open(Options{ResultCacheMB: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE d",
		"CREATE TABLE t (s VARCHAR)",
		"INSERT INTO t VALUES ('A, B')",
		"INSERT INTO t VALUES ('A')",
		"INSERT INTO t VALUES ('B')",
	} {
		if _, err := db.Execute(ctx, "d", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for _, c := range []struct {
		stmt string
		want int64
	}{
		{"SELECT COUNT(*) FROM t WHERE s IN ('A, B')", 1},
		{"SELECT COUNT(*) FROM t WHERE s IN ('A', 'B')", 2},
		{"SELECT COUNT(*) FROM t WHERE s IN ('A, B')", 1},
	} {
		q, err := db.Submit("d", c.stmt, Immediate)
		if err != nil {
			t.Fatal(err)
		}
		waitQuery(t, q)
		if got := q.Result().Rows[0][0].I; got != c.want {
			t.Fatalf("%s = %d (cached %v), want %d", c.stmt, got, q.Result().Cached, c.want)
		}
	}
}
