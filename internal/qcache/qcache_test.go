package qcache_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/plan"
	"repro/internal/qcache"
)

// newTestSetup builds an engine with two small tables and a cache over its
// catalog and planner.
func newTestSetup(t *testing.T, planEntries int, resultBytes int64) (*engine.Engine, *qcache.Cache) {
	t.Helper()
	cat := catalog.New()
	eng := engine.New(cat, objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE t (a BIGINT, s VARCHAR)",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')",
		"CREATE TABLE u (b BIGINT)",
		"INSERT INTO u VALUES (10), (20)",
	} {
		if _, err := eng.Execute(ctx, "db", q); err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
	}
	qc := qcache.New(qcache.Config{
		Catalog:     cat,
		Planner:     eng.PlanQuery,
		PlanEntries: planEntries,
		ResultBytes: resultBytes,
	})
	return eng, qc
}

func mustPlan(t *testing.T, qc *qcache.Cache, db, sqlText string, rowLimit int64) string {
	t.Helper()
	_, rk, err := qc.Plan(db, sqlText, rowLimit)
	if err != nil {
		t.Fatalf("Plan(%q): %v", sqlText, err)
	}
	return rk
}

func TestNormalizationEquivalence(t *testing.T) {
	eng, qc := newTestSetup(t, 16, 0)

	rk1 := mustPlan(t, qc, "db", "SELECT a FROM t WHERE a > 1", 0)
	// Whitespace, identifier/keyword case and comments must all land on the
	// same entry.
	for _, variant := range []string{
		"select   a from T\twhere A > 1",
		"SELECT a -- trailing comment\nFROM t WHERE a > 1",
		"SELECT a FROM t WHERE a > 1;",
	} {
		if rk := mustPlan(t, qc, "db", variant, 0); rk != rk1 {
			t.Errorf("variant %q got result key %q, want %q", variant, rk, rk1)
		}
	}
	s := qc.Snapshot()
	if s.Plan.Misses != 1 || s.Plan.Hits != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", s.Plan.Hits, s.Plan.Misses)
	}

	// A different literal is a different query: same normalized shape,
	// different bind list.
	if rk := mustPlan(t, qc, "db", "SELECT a FROM t WHERE a > 2", 0); rk == rk1 {
		t.Error("different literal shared a result key")
	}
	// Same text under a different row limit is a different entry too: the
	// serving layer folds its cap into the plan.
	mustPlan(t, qc, "db", "SELECT a FROM t WHERE a > 1", 7)
	s = qc.Snapshot()
	if s.Plan.Misses != 3 {
		t.Fatalf("misses = %d, want 3", s.Plan.Misses)
	}
	// Literals that concatenate identically must not collide: 1,23 vs 12,3.
	k1 := mustPlan(t, qc, "db", "SELECT a FROM t WHERE a > 1 AND a < 23", 0)
	k2 := mustPlan(t, qc, "db", "SELECT a FROM t WHERE a > 12 AND a < 3", 0)
	if k1 == k2 {
		t.Error("length-prefixing failed: distinct bind lists collided")
	}
	// A quoted identifier can spell out a token sequence: one column named
	// "s , a" is not the two columns s and a.
	misses := qc.Snapshot().Plan.Misses
	var cols [2][]string
	for i, q := range []string{`SELECT a AS "s , a" FROM t`, `SELECT a AS s , a FROM t`} {
		node, _, err := qc.Plan("db", q, 0)
		if err != nil {
			t.Fatalf("Plan(%q): %v", q, err)
		}
		res, err := eng.RunPlan(context.Background(), node)
		if err != nil {
			t.Fatalf("run %q: %v", q, err)
		}
		cols[i] = res.Columns
	}
	if got := qc.Snapshot().Plan.Misses - misses; got != 2 {
		t.Errorf("quoted-identifier pair: %d plan-cache misses, want 2", got)
	}
	if fmt.Sprint(cols[0]) != "[s , a]" || fmt.Sprint(cols[1]) != "[s a]" {
		t.Errorf("quoted-identifier pair answered with columns %q and %q", cols[0], cols[1])
	}
}

// newSharedSetup builds an engine whose two tables span several files
// each (one per INSERT), so CF and parallel splits really partition, and a
// plan cache over it.
func newSharedSetup(t *testing.T) (*engine.Engine, *qcache.Cache) {
	t.Helper()
	cat := catalog.New()
	eng := engine.New(cat, objstore.NewMemory())
	stmts := []string{
		"CREATE DATABASE db",
		"CREATE TABLE f (a BIGINT, k BIGINT, s VARCHAR)",
		"CREATE TABLE d (k BIGINT, name VARCHAR)",
	}
	for file := 0; file < 6; file++ {
		var rows []string
		for r := 0; r < 20; r++ {
			a := file*20 + r
			rows = append(rows, fmt.Sprintf("(%d, %d, '%c')", a, a%9, 'p'+rune(a%4)))
		}
		stmts = append(stmts, "INSERT INTO f VALUES "+strings.Join(rows, ", "))
	}
	for file := 0; file < 4; file++ {
		var rows []string
		for r := 0; r < 2; r++ {
			k := file*2 + r
			rows = append(rows, fmt.Sprintf("(%d, 'n%d')", k, k%3))
		}
		stmts = append(stmts, "INSERT INTO d VALUES "+strings.Join(rows, ", "))
	}
	ctx := context.Background()
	for _, q := range stmts {
		if _, err := eng.Execute(ctx, "db", q); err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
	}
	return eng, qcache.New(qcache.Config{Catalog: cat, Planner: eng.PlanQuery, PlanEntries: 16})
}

// TestCachedPlanSharedAcrossExecutions hands one cached plan to concurrent
// executions on every path a plan takes — serial, the parallel split and a
// CF split through the wire — and checks that each returns the fresh
// serial rows and that the plan is unchanged afterwards. Under -race it
// fails if anything writes to a bound plan after binding.
func TestCachedPlanSharedAcrossExecutions(t *testing.T) {
	eng, qc := newSharedSetup(t)
	fresh := qcache.New(qcache.Config{Catalog: eng.Catalog(), Planner: eng.PlanQuery})
	ctx := context.Background()
	stmts := []string{
		// Partial aggregation over a join (a shared-build split in parallel).
		"SELECT d.name, COUNT(*), SUM(f.a), MIN(f.s) FROM f, d WHERE f.k = d.k GROUP BY d.name ORDER BY d.name",
		// Top-N over a join, through a hidden sort key.
		"SELECT f.a, d.name FROM f, d WHERE f.k = d.k ORDER BY f.a DESC, f.s LIMIT 7",
		// Top-N over one table.
		"SELECT a, s FROM f ORDER BY s, a DESC LIMIT 5",
		// A DISTINCT aggregate over a join: in parallel the whole join is
		// the worker fragment (a join-probe split).
		"SELECT COUNT(DISTINCT f.s), COUNT(*) FROM f, d WHERE f.k = d.k AND d.name <> 'n2'",
		// BETWEEN in the pushed-down scan filter.
		"SELECT s, COUNT(*), MAX(a) FROM f WHERE a BETWEEN 17 AND 93 GROUP BY s ORDER BY s",
	}
	type shared struct {
		q       string
		node    plan.Node
		want    string
		explain string
	}
	plans := make([]shared, len(stmts))
	for i, q := range stmts {
		node, _, err := qc.Plan("db", q, 0)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		again, _, err := qc.Plan("db", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if again != node {
			t.Fatalf("%q: a plan-cache hit returned a different plan", q)
		}
		// The expectation comes from a separate bind, so the shared plan's
		// first execution happens on the goroutines below.
		ref, _, err := fresh.Plan("db", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunPlan(ctx, ref)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		plans[i] = shared{q: q, node: node, want: rowsOf(res), explain: plan.Explain(ref)}
	}

	var seq atomic.Int64
	cf := func(node plan.Node) (*engine.Result, error) {
		split, err := eng.SplitForCF(node, fmt.Sprintf("shared-%d", seq.Add(1)), 4)
		if err != nil {
			return nil, err
		}
		interms := make([]catalog.FileMeta, len(split.Tasks))
		for i := range split.Tasks {
			resp, err := eng.InvokeTask(ctx, &engine.LocalInvoker{Engine: eng}, split, i, 0)
			if err != nil {
				return nil, err
			}
			interms[i] = resp.Interm
		}
		return eng.MergeIntermediates(ctx, split, interms)
	}
	paths := map[string]func(plan.Node) (*engine.Result, error){
		"serial":   func(n plan.Node) (*engine.Result, error) { return eng.RunPlan(ctx, n) },
		"parallel": func(n plan.Node) (*engine.Result, error) { return eng.RunPlanParallel(ctx, n, 4) },
		"cf":       cf,
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := range plans {
					p := plans[(i+g)%len(plans)]
					for name, run := range paths {
						res, err := run(p.node)
						if err != nil {
							errs <- fmt.Errorf("%s %q: %v", name, p.q, err)
							return
						}
						if got := rowsOf(res); got != p.want {
							errs <- fmt.Errorf("%s %q: rows\n%s\nwant\n%s", name, p.q, got, p.want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, p := range plans {
		if got := plan.Explain(p.node); got != p.explain {
			t.Errorf("%q: shared plan changed by execution:\n%s\nwant\n%s", p.q, got, p.explain)
		}
	}
}

// rowsOf renders a result's columns and rows for comparison.
func rowsOf(res *engine.Result) string {
	return fmt.Sprint(res.Columns, res.Rows)
}

func TestPlanCacheLRUEviction(t *testing.T) {
	_, qc := newTestSetup(t, 2, 0)
	mustPlan(t, qc, "db", "SELECT a FROM t WHERE a = 1", 0)
	mustPlan(t, qc, "db", "SELECT a FROM t WHERE a = 2", 0)
	mustPlan(t, qc, "db", "SELECT a FROM t WHERE a = 1", 0) // refresh entry 1
	mustPlan(t, qc, "db", "SELECT a FROM t WHERE a = 3", 0) // evicts entry 2
	s := qc.Snapshot()
	if s.Plan.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Plan.Entries)
	}
	mustPlan(t, qc, "db", "SELECT a FROM t WHERE a = 1", 0)
	if got := qc.Snapshot().Plan.Hits; got != 2 {
		t.Fatalf("hits = %d, want 2 (recently-used entry survived)", got)
	}
	mustPlan(t, qc, "db", "SELECT a FROM t WHERE a = 2", 0)
	if got := qc.Snapshot().Plan.Misses; got != 4 {
		t.Fatalf("misses = %d, want 4 (evicted LRU entry re-planned)", got)
	}
}

func TestGenerationInvalidation(t *testing.T) {
	eng, qc := newTestSetup(t, 16, 0)
	rk1 := mustPlan(t, qc, "db", "SELECT a FROM t", 0)
	mustPlan(t, qc, "db", "SELECT a FROM t", 0)
	if s := qc.Snapshot(); s.Plan.Hits != 1 {
		t.Fatalf("hits = %d, want 1", s.Plan.Hits)
	}

	// DML against an unrelated table must not evict.
	if _, err := eng.Execute(context.Background(), "db", "INSERT INTO u VALUES (30)"); err != nil {
		t.Fatal(err)
	}
	mustPlan(t, qc, "db", "SELECT a FROM t", 0)
	if s := qc.Snapshot(); s.Plan.Hits != 2 || s.Plan.Invalidations != 0 {
		t.Fatalf("after unrelated INSERT: hits=%d invalidations=%d, want 2/0", s.Plan.Hits, s.Plan.Invalidations)
	}

	// DML against the referenced table bumps its generation: the entry is
	// stale, the rebuilt plan carries a new result key.
	if _, err := eng.Execute(context.Background(), "db", "INSERT INTO t VALUES (4, 'w')"); err != nil {
		t.Fatal(err)
	}
	rk2 := mustPlan(t, qc, "db", "SELECT a FROM t", 0)
	s := qc.Snapshot()
	if s.Plan.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Plan.Invalidations)
	}
	if rk2 == rk1 {
		t.Fatal("result key unchanged across a generation bump; stale results would be served")
	}

	// Dropping the table invalidates as well (Generation lookup fails).
	if _, err := eng.Execute(context.Background(), "db", "DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := qc.Plan("db", "SELECT a FROM t", 0); err == nil {
		t.Fatal("plan against a dropped table succeeded from cache")
	}
}

func TestPlanRejectsNonSelect(t *testing.T) {
	_, qc := newTestSetup(t, 16, 0)
	if _, _, err := qc.Plan("db", "DROP TABLE t", 0); err == nil {
		t.Fatal("non-SELECT was planned")
	}
	if _, _, err := qc.Plan("db", "SELECT a FROM t WHERE", 0); err == nil {
		t.Fatal("syntax error not surfaced")
	}
}

func TestPlanEntriesZeroStillKeys(t *testing.T) {
	_, qc := newTestSetup(t, 0, 1<<20)
	rk1 := mustPlan(t, qc, "db", "SELECT a FROM t", 0)
	rk2 := mustPlan(t, qc, "db", "SELECT  a  FROM  t", 0)
	if rk1 == "" || rk1 != rk2 {
		t.Fatalf("result keys %q vs %q, want equal and non-empty", rk1, rk2)
	}
	if s := qc.Snapshot(); s.Plan.Entries != 0 || s.Plan.Hits != 0 {
		t.Fatalf("plan caching happened with PlanEntries=0: %+v", s.Plan)
	}
}

func resultOfSize(rows int) *engine.Result {
	res := &engine.Result{
		Columns: []string{"a"},
		Types:   []col.Type{col.INT64},
		Stats:   engine.Stats{RowsScanned: 100, BytesScanned: 4096, RowsReturned: int64(rows)},
	}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, []col.Value{col.Int(int64(i))})
	}
	return res
}

func TestResultCacheHitView(t *testing.T) {
	rc := qcache.NewResultCache(1 << 20)
	if _, ok := rc.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	rc.Put("k", resultOfSize(3))
	got, ok := rc.Get("k")
	if !ok {
		t.Fatal("miss after Put")
	}
	if !got.Cached {
		t.Error("hit view not marked Cached")
	}
	if got.Stats.BytesScanned != 0 || got.Stats.RowsScanned != 0 {
		t.Errorf("hit view reports scanning: %+v", got.Stats)
	}
	if got.Stats.RowsReturned != 3 {
		t.Errorf("RowsReturned = %d, want 3", got.Stats.RowsReturned)
	}
	if got.Origin == nil || got.Origin.BytesScanned != 4096 {
		t.Errorf("origin stats missing or wrong: %+v", got.Origin)
	}
	if len(got.Rows) != 3 || got.Rows[2][0].I != 2 {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestResultCacheBudgetEviction(t *testing.T) {
	small := resultOfSize(1)
	// Budget fits roughly two entries of this size.
	var sz int64 = 2*230 + 40
	rc := qcache.NewResultCache(sz)
	rc.Put("a", small)
	rc.Put("b", resultOfSize(1))
	rc.Get("a") // refresh "a"
	rc.Put("c", resultOfSize(1))
	st := rc.Stats()
	if st.Bytes > sz {
		t.Fatalf("bytes %d over budget %d", st.Bytes, sz)
	}
	if st.Evictions == 0 {
		t.Fatal("no eviction under a full budget")
	}
	if _, ok := rc.Get("b"); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := rc.Get("a"); !ok {
		t.Error("recently-used entry evicted")
	}

	// An entry bigger than the whole budget is refused outright.
	rc.Put("huge", resultOfSize(10000))
	if _, ok := rc.Get("huge"); ok {
		t.Error("oversized entry admitted")
	}

	// Replacing a key must not leak bytes.
	before := rc.Stats().Bytes
	rc.Put("a", resultOfSize(1))
	if after := rc.Stats().Bytes; after != before {
		t.Errorf("replacement changed accounting: %d -> %d", before, after)
	}
}

func TestResultKeysDifferAcrossDatabases(t *testing.T) {
	eng, qc := newTestSetup(t, 16, 0)
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE other",
		"CREATE TABLE t (a BIGINT, s VARCHAR)",
	} {
		if _, err := eng.Execute(ctx, "other", q); err != nil {
			t.Fatal(err)
		}
	}
	rk1 := mustPlan(t, qc, "db", "SELECT a FROM t", 0)
	rk2 := mustPlan(t, qc, "other", "SELECT a FROM t", 0)
	if rk1 == rk2 {
		t.Fatal("identical text in different databases shared a result key")
	}
}

func TestConcurrentPlan(t *testing.T) {
	_, qc := newTestSetup(t, 8, 0)
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				_, _, err = qc.Plan("db", fmt.Sprintf("SELECT a FROM t WHERE a > %d", i%10), 0)
			}
			done <- err
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
