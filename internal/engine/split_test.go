package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
)

// newSplitEngine loads a multi-file fact table so CF partitioning has
// something to chew on.
func newSplitEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE dim (d_key BIGINT NOT NULL, d_name VARCHAR NOT NULL)",
		"CREATE TABLE fact (f_key BIGINT NOT NULL, f_dim BIGINT NOT NULL, f_val DOUBLE NOT NULL, f_cat VARCHAR NOT NULL)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for d := 0; d < 4; d++ {
		q := fmt.Sprintf("INSERT INTO dim VALUES (%d, 'dim-%d')", d, d)
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatal(err)
		}
	}
	// 6 files x 500 rows.
	for f := 0; f < 6; f++ {
		k := col.NewVector(col.INT64, 500)
		dm := col.NewVector(col.INT64, 500)
		v := col.NewVector(col.FLOAT64, 500)
		c := col.NewVector(col.STRING, 500)
		for i := 0; i < 500; i++ {
			id := f*500 + i
			k.Ints[i] = int64(id)
			dm.Ints[i] = int64(id % 4)
			v.Floats[i] = float64(id%100) / 10
			c.Strs[i] = []string{"x", "y", "z"}[id%3]
		}
		if err := e.LoadBatch("db", "fact", col.NewBatch(k, dm, v, c), pixfile.WriterOptions{RowGroupSize: 128}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// splitCF drives a split through the CF pieces by hand — one InvokeTask
// attempt per task over inv, then MergeIntermediates — the same two calls
// internal/core's scheduler makes, with no retries. The result's Stats are
// the whole query's: the exchange plus every task's scan.
func splitCF(e *Engine, inv WorkerInvoker, split *CFSplit) (*Result, []*WorkerResponse, error) {
	ctx := context.Background()
	resps := make([]*WorkerResponse, len(split.Tasks))
	interms := make([]catalog.FileMeta, len(split.Tasks))
	for i := range split.Tasks {
		resp, err := e.InvokeTask(ctx, inv, split, i, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("worker %d: %w", i, err)
		}
		resps[i], interms[i] = resp, resp.Interm
	}
	merged, err := e.MergeIntermediates(ctx, split, interms)
	if err != nil {
		return nil, nil, fmt.Errorf("merge: %w", err)
	}
	for _, r := range resps {
		merged.Stats.Add(r.Stats)
	}
	return merged, resps, nil
}

// runSplitCF is splitCF over the in-process invoker.
func runSplitCF(t testing.TB, e *Engine, split *CFSplit) (*Result, []*WorkerResponse) {
	t.Helper()
	merged, resps, err := splitCF(e, &LocalInvoker{Engine: e}, split)
	if err != nil {
		t.Fatal(err)
	}
	return merged, resps
}

// runBothWays executes q locally and through the CF split path with the
// given worker count, asserting identical results.
func runBothWays(t *testing.T, e *Engine, q string, parts int) (SplitMode, Stats) {
	t.Helper()
	ctx := context.Background()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel := stmt.(*sql.Select)

	localPlan, err := e.PlanQuery("db", sel)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	local, err := e.RunPlan(ctx, localPlan)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	cfPlan, err := e.PlanQuery("db", sel)
	if err != nil {
		t.Fatalf("plan2: %v", err)
	}
	split, err := e.SplitForCF(cfPlan, fmt.Sprintf("q-%d", parts), parts)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	merged, _ := runSplitCF(t, e, split)

	lg, mg := rowsAsStrings(local), rowsAsStrings(merged)
	if len(lg) != len(mg) {
		t.Fatalf("row counts differ: local %d vs cf %d\nlocal: %v\ncf: %v", len(lg), len(mg), lg, mg)
	}
	for i := range lg {
		if lg[i] != mg[i] {
			t.Fatalf("row %d differs:\nlocal: %q\ncf:    %q", i, lg[i], mg[i])
		}
	}
	return split.Mode, merged.Stats
}

func TestSplitPartialAggGlobal(t *testing.T) {
	e := newSplitEngine(t)
	mode, _ := runBothWays(t, e, "SELECT COUNT(*), SUM(f_val), AVG(f_val), MIN(f_key), MAX(f_key) FROM fact WHERE f_val > 2", 4)
	if mode != SplitPartialAgg {
		t.Fatalf("mode = %s, want partial-agg", mode)
	}
}

func TestSplitPartialAggGrouped(t *testing.T) {
	e := newSplitEngine(t)
	mode, _ := runBothWays(t, e, `SELECT f_cat, COUNT(*) AS cnt, SUM(f_val) AS total, AVG(f_val) AS mean
		FROM fact GROUP BY f_cat ORDER BY f_cat`, 3)
	if mode != SplitPartialAgg {
		t.Fatalf("mode = %s", mode)
	}
}

func TestSplitPartialAggHavingAndLimit(t *testing.T) {
	e := newSplitEngine(t)
	runBothWays(t, e, `SELECT f_dim, COUNT(*) AS cnt FROM fact
		GROUP BY f_dim HAVING COUNT(*) > 10 ORDER BY cnt DESC, f_dim LIMIT 3`, 5)
}

func TestSplitScanPushdownJoin(t *testing.T) {
	e := newSplitEngine(t)
	mode, _ := runBothWays(t, e, `SELECT d.d_name, COUNT(*) AS cnt, SUM(f.f_val) AS total
		FROM fact f, dim d WHERE f.f_dim = d.d_key AND f.f_val > 1
		GROUP BY d.d_name ORDER BY d.d_name`, 4)
	if mode != SplitScanPushdown {
		t.Fatalf("mode = %s, want scan-pushdown", mode)
	}
}

func TestSplitScanPushdownNoAgg(t *testing.T) {
	e := newSplitEngine(t)
	mode, _ := runBothWays(t, e, "SELECT f_key, f_val FROM fact WHERE f_key >= 1490 AND f_key < 1505 ORDER BY f_key", 6)
	if mode != SplitScanPushdown {
		t.Fatalf("mode = %s", mode)
	}
}

func TestSplitCountDistinctFallsBackToScanMode(t *testing.T) {
	e := newSplitEngine(t)
	mode, _ := runBothWays(t, e, "SELECT COUNT(DISTINCT f_cat) FROM fact", 4)
	if mode != SplitScanPushdown {
		t.Fatalf("mode = %s, want scan-pushdown for COUNT DISTINCT", mode)
	}
}

func TestSplitSingleWorker(t *testing.T) {
	e := newSplitEngine(t)
	runBothWays(t, e, "SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat", 1)
}

func TestSplitMoreWorkersThanFiles(t *testing.T) {
	e := newSplitEngine(t)
	stmt, _ := sql.Parse("SELECT COUNT(*) FROM fact")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	split, err := e.SplitForCF(node, "q-many", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Tasks) != 6 { // clamped to file count
		t.Fatalf("tasks = %d, want 6", len(split.Tasks))
	}
	r, _ := runSplitCF(t, e, split)
	if r.Rows[0][0].I != 3000 {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
}

func planOf(t *testing.T, e *Engine, q string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return node
}

// TestSplitOptsChooseMergeSideModes pins which decomposition each plan
// shape gets when tasks may share a join build — and that the CF split
// (no shared memory) never pushes a join into the workers.
func TestSplitOptsChooseMergeSideModes(t *testing.T) {
	e := newSplitEngine(t)
	opts := SplitOptions{SharedJoinBuild: true}
	cases := []struct {
		q        string
		mode     SplitMode
		hasBuild bool
	}{
		// Aggregation over a single join: partial agg with a shared build.
		{"SELECT d_name, COUNT(*) FROM fact, dim WHERE f_dim = d_key GROUP BY d_name ORDER BY d_name", SplitPartialAgg, true},
		// Join without aggregation: whole-join pushdown.
		{"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key ORDER BY f_key", SplitJoinProbe, true},
		// ORDER BY + LIMIT over one scan: worker top-N.
		{"SELECT f_key, f_val FROM fact ORDER BY f_val DESC, f_key LIMIT 3", SplitTopN, false},
		// ORDER BY + LIMIT over a join: worker top-N over the shared build.
		{"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key ORDER BY f_key LIMIT 3", SplitTopN, true},
		// Single-scan aggregation: unchanged partial agg, no build side.
		{"SELECT f_cat, COUNT(*) FROM fact GROUP BY f_cat", SplitPartialAgg, false},
		// Distinct aggregates still fall back to scan pushdown.
		{"SELECT COUNT(DISTINCT f_cat) FROM fact", SplitScanPushdown, false},
	}
	for _, c := range cases {
		split, err := e.SplitForCFOpts(planOf(t, e, c.q), "opts", 3, opts)
		if err != nil {
			t.Fatalf("split %q: %v", c.q, err)
		}
		if split.Mode != c.mode {
			t.Errorf("%q: mode = %s, want %s", c.q, split.Mode, c.mode)
		}
		if (split.buildJoin != nil) != c.hasBuild {
			t.Errorf("%q: buildJoin = %v, want hasBuild=%v", c.q, split.buildJoin, c.hasBuild)
		}
	}
	// The CF split keeps joins on the coordinator but still bounds a
	// single-scan ORDER BY + LIMIT in the workers.
	for q, want := range map[string]SplitMode{
		"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key ORDER BY f_key":         SplitScanPushdown,
		"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key ORDER BY f_key LIMIT 3": SplitScanPushdown,
		"SELECT f_key, f_val FROM fact ORDER BY f_val DESC, f_key LIMIT 3":               SplitTopN,
	} {
		split, err := e.SplitForCF(planOf(t, e, q), "default", 3)
		if err != nil {
			t.Fatalf("split %q: %v", q, err)
		}
		if split.Mode != want || split.buildJoin != nil {
			t.Errorf("CF split %q: mode = %s (buildJoin %v), want %s without a shared build", q, split.Mode, split.buildJoin, want)
		}
	}
}

// TestSharedBuildSplitRejectedByCFWorker: a shared-build split cannot run
// as a cloud-function worker (separate processes would re-scan the build
// side once per task, inflating billed bytes).
func TestSharedBuildSplitRejectedByCFWorker(t *testing.T) {
	e := newSplitEngine(t)
	node := planOf(t, e, "SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key ORDER BY f_key")
	split, err := e.SplitForCFOpts(node, "cf-reject", 2, SplitOptions{SharedJoinBuild: true})
	if err != nil {
		t.Fatal(err)
	}
	if split.buildJoin == nil {
		t.Fatal("expected a shared-build split")
	}
	if _, err := NewWorkerRequest(split, 0, 0); err == nil {
		t.Fatal("NewWorkerRequest accepted a shared-build split")
	}
	if _, err := e.InvokeTask(context.Background(), &LocalInvoker{Engine: e}, split, 0, 0); err == nil {
		t.Fatal("InvokeTask ran a shared-build split as a CF worker")
	}
}

// TestSplitTopNRunsThroughCFPath: the top-N split (without a shared build)
// is CF-safe — workers write at most N rows each as intermediates and the
// merge reproduces the serial answer.
func TestSplitTopNRunsThroughCFPath(t *testing.T) {
	e := newSplitEngine(t)
	ctx := context.Background()
	q := "SELECT f_key, f_val FROM fact WHERE f_val > 2 ORDER BY f_val DESC, f_key LIMIT 5 OFFSET 1"

	local, err := e.RunPlan(ctx, planOf(t, e, q))
	if err != nil {
		t.Fatal(err)
	}
	split, err := e.SplitForCF(planOf(t, e, q), "cf-topn", 3)
	if err != nil {
		t.Fatal(err)
	}
	if split.Mode != SplitTopN {
		t.Fatalf("mode = %s, want top-n", split.Mode)
	}
	merged, resps := runSplitCF(t, e, split)
	for i, r := range resps {
		if r.Interm.Rows > 6 { // LIMIT 5 + OFFSET 1
			t.Fatalf("worker %d returned %d rows, want ≤ 6", i, r.Interm.Rows)
		}
	}
	lg, mg := rowsAsStrings(local), rowsAsStrings(merged)
	if len(lg) != len(mg) {
		t.Fatalf("rows: local %v vs cf %v", lg, mg)
	}
	for i := range lg {
		if lg[i] != mg[i] {
			t.Fatalf("row %d: local %q vs cf %q", i, lg[i], mg[i])
		}
	}
}

func TestSplitStatsSeparateIntermediates(t *testing.T) {
	e := newSplitEngine(t)
	_, stats := runBothWays(t, e, "SELECT f_cat, COUNT(*) FROM fact GROUP BY f_cat ORDER BY f_cat", 3)
	if stats.BytesScanned <= 0 {
		t.Fatalf("no base bytes accounted")
	}
	if stats.BytesIntermediate <= 0 {
		t.Fatalf("no intermediate bytes accounted")
	}
	if stats.BytesIntermediate >= stats.BytesScanned {
		t.Fatalf("intermediates (%d) should be far smaller than base scan (%d)", stats.BytesIntermediate, stats.BytesScanned)
	}
}

func TestIntermediatesCleanedUp(t *testing.T) {
	e := newSplitEngine(t)
	runBothWays(t, e, "SELECT COUNT(*) FROM fact", 4)
	infos, err := e.Store().List("_intermediate/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates left behind: %v", infos)
	}
}
