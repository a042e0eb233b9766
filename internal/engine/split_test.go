package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/exec"
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
	return splitCFFrom(e, inv, split, 0)
}

// splitCFFrom is splitCF with task 0 run as the given attempt, as after
// its earlier attempts failed.
func splitCFFrom(e *Engine, inv WorkerInvoker, split *CFSplit, attempt0 int) (*Result, []*WorkerResponse, error) {
	ctx := context.Background()
	resps := make([]*WorkerResponse, len(split.Tasks))
	interms := make([]catalog.FileMeta, len(split.Tasks))
	for i := range split.Tasks {
		attempt := 0
		if i == 0 {
			attempt = attempt0
		}
		resp, err := e.InvokeTask(ctx, inv, split, i, attempt)
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
func runBothWays(t *testing.T, e *Engine, q string, parts int) (*CFSplit, Stats) {
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
	return split, merged.Stats
}

// workerRoot names the node type at the root of a split's worker plan,
// which is how the split decomposed the plan: *plan.AggNode for partial
// aggregation, *plan.TopNNode for worker top-N, *plan.ScanNode for pushdown
// of one scan, and otherwise the root of a pushed-down join fragment.
func workerRoot(s *CFSplit) string { return fmt.Sprintf("%T", s.workerPlan) }

func TestSplitPartialAggGlobal(t *testing.T) {
	e := newSplitEngine(t)
	split, _ := runBothWays(t, e, "SELECT COUNT(*), SUM(f_val), AVG(f_val), MIN(f_key), MAX(f_key) FROM fact WHERE f_val > 2", 4)
	if got := workerRoot(split); got != "*plan.AggNode" {
		t.Fatalf("worker plan root = %s, want a partial aggregate", got)
	}
}

func TestSplitPartialAggGrouped(t *testing.T) {
	e := newSplitEngine(t)
	split, _ := runBothWays(t, e, `SELECT f_cat, COUNT(*) AS cnt, SUM(f_val) AS total, AVG(f_val) AS mean
		FROM fact GROUP BY f_cat ORDER BY f_cat`, 3)
	if got := workerRoot(split); got != "*plan.AggNode" {
		t.Fatalf("worker plan root = %s, want a partial aggregate", got)
	}
}

func TestSplitPartialAggHavingAndLimit(t *testing.T) {
	e := newSplitEngine(t)
	runBothWays(t, e, `SELECT f_dim, COUNT(*) AS cnt FROM fact
		GROUP BY f_dim HAVING COUNT(*) > 10 ORDER BY cnt DESC, f_dim LIMIT 3`, 5)
}

// TestSplitScanPushdownJoin: a grouped aggregate over a join splits as
// partial aggregation probing the join in the workers. f_val holds
// fractional floats, so the per-task partial SUMs may differ from the
// serial sum in the last bits; rows compare within 1e-9 relative, and
// billed bytes exactly.
func TestSplitScanPushdownJoin(t *testing.T) {
	e := newSplitEngine(t)
	q := `SELECT d.d_name, COUNT(*) AS cnt, SUM(f.f_val) AS total
		FROM fact f, dim d WHERE f.f_dim = d.d_key AND f.f_val > 1
		GROUP BY d.d_name ORDER BY d.d_name`
	split, err := e.SplitForCF(planOf(t, e, q), "pushdown-join", 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := workerRoot(split); got != "*plan.AggNode" || len(workerJoins(split.workerPlan)) != 1 || split.partScan.Table.Name != "fact" {
		t.Fatalf("worker plan %s over %s, want a partial aggregate probing the join over the fact scan", got, split.partScan.Table.Name)
	}
	serial, err := e.RunPlan(context.Background(), planOf(t, e, q))
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := runSplitCF(t, e, split)
	if len(cf.Rows) != len(serial.Rows) || cf.Stats.BytesScanned != serial.Stats.BytesScanned {
		t.Fatalf("CF %d rows, %d bytes scanned; serial %d rows, %d bytes", len(cf.Rows), cf.Stats.BytesScanned, len(serial.Rows), serial.Stats.BytesScanned)
	}
	for i, row := range serial.Rows {
		for c, want := range row {
			got := cf.Rows[i][c]
			if want.Type == col.FLOAT64 && !got.Null && math.Abs(got.F-want.F) <= 1e-9*math.Max(1, math.Abs(want.F)) {
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("row %d col %d: CF %v vs serial %v", i, c, got, want)
			}
		}
	}
}

func TestSplitScanPushdownNoAgg(t *testing.T) {
	e := newSplitEngine(t)
	split, _ := runBothWays(t, e, "SELECT f_key, f_val FROM fact WHERE f_key >= 1490 AND f_key < 1505 ORDER BY f_key", 6)
	if got := workerRoot(split); got != "*plan.ScanNode" {
		t.Fatalf("worker plan root = %s, want the scan alone", got)
	}
}

func TestSplitCountDistinctFallsBackToScanMode(t *testing.T) {
	e := newSplitEngine(t)
	split, _ := runBothWays(t, e, "SELECT COUNT(DISTINCT f_cat) FROM fact", 4)
	if got := workerRoot(split); got != "*plan.ScanNode" {
		t.Fatalf("worker plan root = %s, want the scan alone for COUNT DISTINCT", got)
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

// workerJoins lists the joins of a worker plan, top-down.
func workerJoins(n plan.Node) []*plan.JoinNode {
	var joins []*plan.JoinNode
	if j, ok := n.(*plan.JoinNode); ok {
		joins = append(joins, j)
	}
	for _, c := range n.Children() {
		joins = append(joins, workerJoins(c)...)
	}
	return joins
}

// TestSplitOptsChooseMergeSideModes pins which decomposition each plan
// shape gets, on either tier: partial aggregation and top-N, each probing
// a join in its workers where the plan has one, and otherwise the largest
// scan pushed down alone, a streaming worker plan that the VM declines.
func TestSplitOptsChooseMergeSideModes(t *testing.T) {
	e := newSplitEngine(t)
	cases := []struct {
		q        string
		root     string
		hasBuild bool
	}{
		// Aggregation over a single join: partial agg probing the join.
		{"SELECT d_name, COUNT(*) FROM fact, dim WHERE f_dim = d_key GROUP BY d_name ORDER BY d_name", "*plan.AggNode", true},
		// Join without aggregation: the worker plan would stream.
		{"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key ORDER BY f_key", "*plan.ScanNode", false},
		// ORDER BY + LIMIT over one scan: worker top-N.
		{"SELECT f_key, f_val FROM fact ORDER BY f_val DESC, f_key LIMIT 3", "*plan.TopNNode", false},
		// ORDER BY + LIMIT over a join: worker top-N probing the join.
		{"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key ORDER BY f_key LIMIT 3", "*plan.TopNNode", true},
		// Single-scan aggregation: unchanged partial agg, no build side.
		{"SELECT f_cat, COUNT(*) FROM fact GROUP BY f_cat", "*plan.AggNode", false},
		// Distinct aggregates push the scan alone down: it streams.
		{"SELECT COUNT(DISTINCT f_cat) FROM fact", "*plan.ScanNode", false},
	}
	for _, c := range cases {
		split, err := e.SplitForCF(planOf(t, e, c.q), "opts", 3)
		if err != nil {
			t.Fatalf("split %q: %v", c.q, err)
		}
		if got := workerRoot(split); got != c.root {
			t.Errorf("%q: worker plan root = %s, want %s", c.q, got, c.root)
		}
		if (len(workerJoins(split.workerPlan)) > 0) != c.hasBuild {
			t.Errorf("%q: worker joins = %v, want hasBuild=%v", c.q, workerJoins(split.workerPlan), c.hasBuild)
		}
		if (split.workerPlan == plan.Node(split.partScan)) != (c.root == "*plan.ScanNode") {
			t.Errorf("%q: worker plan %s, partitioned scan %s", c.q, plan.Explain(split.workerPlan), split.partScan.Binding)
		}
	}
}

// TestCFBuildsBilledOnce: every CF task reads its fragment's join builds
// itself, yet the query bills them once. For every join statement of
// mergeSideQueries, a CF split at 1, 2 and 8 tasks — in process, in worker
// processes, and with task 0's first attempt failing after reading
// everything and retried — matches the serial run in rows, BytesScanned
// and the compared scan stats, and its tasks in RowGroupsRead, with
// identical Stats every way; every other task meters exactly its builds' bytes as
// BytesIntermediate and their row groups as RowGroupsReread, so the GETs
// the query pays grow with the task count while its billed bytes do not.
func TestCFBuildsBilledOnce(t *testing.T) {
	e, dir := newDiskEngine(t, 8, 2000)
	local := &LocalInvoker{Engine: e}
	proc := newProcessInvoker(dir)
	defer proc.Close()
	// faulty runs one attempt's whole fragment, then fails to write it.
	faulty := func() WorkerInvoker {
		return &LocalInvoker{Engine: New(catalog.New(), objstore.NewFaultStore(e.Store(), objstore.FaultConfig{FailFirst: 1, Ops: []string{"Put"}}))}
	}
	ctx := context.Background()
	joins := 0
	for i, q := range mergeSideQueries {
		if len(buildScanSpans(planNode(t, e, q))) == 0 {
			continue
		}
		serial := serialResult(t, e, q)
		interm, gets := map[int]int64{}, map[int]int{}
		for _, parts := range []int{1, 2, 8} {
			split, err := e.SplitForCF(planNode(t, e, q), fmt.Sprintf("billed-%d-%d", i, parts), parts)
			if err != nil {
				t.Fatalf("split %q: %v", q, err)
			}
			if len(workerJoins(split.workerPlan)) == 0 {
				continue // the join stays in the merge plan
			}
			joins++
			what := fmt.Sprintf("%s @%d", q, len(split.Tasks))
			res, resps, err := splitCF(e, local, split)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			expectDistMatchesSerial(t, what, serial, res)
			// The merge adds its reads of the intermediates; the tasks read
			// what the serial run reads.
			taskRGs := 0
			for _, r := range resps {
				taskRGs += r.Stats.RowGroupsRead
			}
			if taskRGs != serial.Stats.RowGroupsRead {
				t.Fatalf("%s: tasks' RowGroupsRead %d, serial %d", what, taskRGs, serial.Stats.RowGroupsRead)
			}
			interm[len(split.Tasks)] = res.Stats.BytesIntermediate
			gets[len(split.Tasks)] = res.Stats.RowGroupsRead + res.Stats.RowGroupsReread
			// Task i run as task 0 bills its builds; as itself it meters
			// exactly those bytes as intermediate instead.
			for task := 1; task < len(split.Tasks); task++ {
				req, err := NewWorkerRequest(split, task, 1)
				if err != nil {
					t.Fatal(err)
				}
				req.Task = 0
				whole := e.ExecuteWorkerRequest(ctx, req)
				got := resps[task].Stats
				builds := whole.Stats.BytesScanned - got.BytesScanned
				if whole.Error != "" || builds <= 0 || got.BytesIntermediate != builds {
					t.Fatalf("%s task %d: BytesIntermediate %d, builds %d (%s)", what, task, got.BytesIntermediate, builds, whole.Error)
				}
				if rgs := whole.Stats.RowGroupsRead - got.RowGroupsRead; rgs <= 0 || got.RowGroupsReread != rgs {
					t.Fatalf("%s task %d: RowGroupsReread %d, build row groups %d", what, task, got.RowGroupsReread, rgs)
				}
			}
			e.SweepIntermediates(split.QueryID)
			procRes, _, err := splitCF(e, proc, split)
			if err != nil {
				t.Fatalf("%s proc: %v", what, err)
			}
			expectDistMatchesSerial(t, what+" proc", serial, procRes)
			if procRes.Stats != res.Stats {
				t.Fatalf("%s: process stats %+v vs local stats %+v", what, procRes.Stats, res.Stats)
			}

			if _, err := e.InvokeTask(ctx, faulty(), split, 0, 0); err == nil {
				t.Fatalf("%s: the faulty attempt succeeded", what)
			}
			retried, _, err := splitCFFrom(e, local, split, 1)
			if err != nil {
				t.Fatalf("%s retried: %v", what, err)
			}
			expectDistMatchesSerial(t, what+" retried", serial, retried)
			if retried.Stats != res.Stats {
				t.Fatalf("%s: retried stats %+v vs %+v", what, retried.Stats, res.Stats)
			}
		}
		if len(interm) > 0 && !(interm[1] < interm[2] && interm[2] < interm[8]) {
			t.Errorf("%q: BytesIntermediate at 1, 2, 8 tasks = %d, %d, %d; want it to grow with the task count", q, interm[1], interm[2], interm[8])
		}
		if len(gets) > 0 && !(gets[1] < gets[2] && gets[2] < gets[8]) {
			t.Errorf("%q: row groups read and re-read at 1, 2, 8 tasks = %d, %d, %d; want them to grow with the task count", q, gets[1], gets[2], gets[8])
		}
	}
	if joins == 0 {
		t.Fatal("no CF worker plan probed a join")
	}
}

// TestSplitJoinChainSharesEveryBuild: the shipped-revenue shape — a
// grouped, top-N aggregate over the big table joined to a dimension that
// another, filtered dimension keys — splits as partial aggregation over
// both joins, whose builds are listed top-down and the lower one reducible
// by the upper one. A CF worker runs the same plan over the wire and
// matches the serial run.
func TestSplitJoinChainSharesEveryBuild(t *testing.T) {
	e := newPartitionedEngine(t, 4, 500)
	q := `SELECT f_key, SUM(f_val) AS rev, d_name FROM tag, dim, fact
		WHERE t_label = 'a' AND t_dim = d_key AND f_dim = d_key
		GROUP BY f_key, d_name ORDER BY rev DESC, f_key LIMIT 10`
	split, err := e.SplitForCF(planOf(t, e, q), "chain", 3)
	if err != nil {
		t.Fatal(err)
	}
	joins := workerJoins(split.workerPlan)
	if got := workerRoot(split); got != "*plan.AggNode" || len(joins) != 2 {
		t.Fatalf("worker plan root = %s with %d builds, want a partial aggregate with 2", got, len(joins))
	}
	upper, lower := joins[0], joins[1]
	if upper.Left != plan.Node(lower) || split.partScan.Table.Name != "fact" {
		t.Fatalf("builds not top-down over the fact probe: %s", plan.Explain(split.workerPlan))
	}
	if _, ok := exec.ReduceCols(upper, lower); !ok {
		t.Fatal("the upper build does not reduce the lower one")
	}
	cf, _ := runSplitCF(t, e, split)
	expectDistMatchesSerial(t, q, serialResult(t, e, q), cf)
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
	if got := workerRoot(split); got != "*plan.TopNNode" {
		t.Fatalf("worker plan root = %s, want a top-N", got)
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
