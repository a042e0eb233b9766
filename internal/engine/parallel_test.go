package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/sql"
)

// newPartitionedEngine loads a fact table split across `files` pixfiles plus
// a one-file dim table and a one-file tag table keyed by dim (some dims
// have two tags, most none, and one tag has a NULL key), so fact ⋈ dim ⋈
// tag is a join chain. f_val holds integer-valued floats so SUM/AVG are
// exact in any accumulation order and serial vs parallel results can be
// compared bit-for-bit.
func newPartitionedEngine(tb testing.TB, files, rowsPerFile int) *Engine {
	tb.Helper()
	return newPartitionedEngineOn(tb, objstore.NewMemory(), files, rowsPerFile)
}

// newPartitionedEngineOn is newPartitionedEngine over a caller-supplied
// store (the cache integration tests and benchmarks layer caching and
// metering under the engine).
func newPartitionedEngineOn(tb testing.TB, store objstore.Store, files, rowsPerFile int) *Engine {
	tb.Helper()
	e := New(catalog.New(), store)
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE dim (d_key BIGINT NOT NULL, d_name VARCHAR NOT NULL)",
		"CREATE TABLE fact (f_key BIGINT NOT NULL, f_dim BIGINT NOT NULL, f_val DOUBLE NOT NULL, f_cat VARCHAR NOT NULL)",
		"CREATE TABLE tag (t_dim BIGINT, t_label VARCHAR NOT NULL, t_w BIGINT NOT NULL)",
		"INSERT INTO tag VALUES (0, 'a', 1), (3, 'b', 2), (6, 'a', 3), (6, 'b', 4), (9, 'a', 5), (12, 'a', 6), (12, 'a', 7), (NULL, 'a', 8), (15, 'b', 9)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			tb.Fatal(err)
		}
	}
	for d := 0; d < 16; d++ {
		if _, err := e.Execute(ctx, "db", fmt.Sprintf("INSERT INTO dim VALUES (%d, 'dim-%02d')", d, d)); err != nil {
			tb.Fatal(err)
		}
	}
	cats := []string{"x", "y", "z", "w"}
	for f := 0; f < files; f++ {
		k := col.NewVector(col.INT64, rowsPerFile)
		dm := col.NewVector(col.INT64, rowsPerFile)
		v := col.NewVector(col.FLOAT64, rowsPerFile)
		c := col.NewVector(col.STRING, rowsPerFile)
		for r := 0; r < rowsPerFile; r++ {
			i := f*rowsPerFile + r
			k.Ints[r] = int64(i)
			dm.Ints[r] = int64(i % 16)
			v.Floats[r] = float64(i % 1000)
			c.Strs[r] = cats[i%4]
		}
		if err := e.LoadBatch("db", "fact", col.NewBatch(k, dm, v, c), pixfile.WriterOptions{RowGroupSize: 1024}); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// parallelQueries covers every split shape a CF worker can run: partial
// aggregation (single-scan aggregates, incl. AVG reconstruction), worker
// top-N, and scan pushdown (DISTINCT aggregates, a sorted plain scan),
// which the VM runs whole. The grouped join aggregates in the workers on
// both tiers: over one shared build on the VM, over each task's own on CF.
var parallelQueries = []string{
	"SELECT COUNT(*), SUM(f_val), MIN(f_val), MAX(f_val), AVG(f_val) FROM fact",
	"SELECT f_cat, COUNT(*), SUM(f_val), AVG(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat",
	"SELECT f_cat, COUNT(*) FROM fact WHERE f_val > 500 GROUP BY f_cat ORDER BY f_cat",
	"SELECT f_key, f_val FROM fact WHERE f_key >= 100 AND f_key < 110 ORDER BY f_key",
	"SELECT COUNT(DISTINCT f_cat), COUNT(DISTINCT f_dim) FROM fact",
	"SELECT d_name, COUNT(*), SUM(f_val) FROM fact, dim WHERE f_dim = d_key GROUP BY d_name ORDER BY d_name",
	"SELECT f_key FROM fact ORDER BY f_val DESC, f_key LIMIT 5",
}

func runBoth(t *testing.T, e *Engine, q string, parallelism int) (*Result, *Result) {
	t.Helper()
	ctx := context.Background()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*sql.Select)
	sNode, err := e.PlanQuery("db", sel)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := e.RunPlan(ctx, sNode)
	if err != nil {
		t.Fatalf("serial %q: %v", q, err)
	}
	pNode, err := e.PlanQuery("db", sel)
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.RunPlanParallel(ctx, pNode, parallelism)
	if err != nil {
		t.Fatalf("parallel %q: %v", q, err)
	}
	return serial, par
}

// sameCell compares two result values as GROUP BY, DISTINCT and ORDER BY
// do: Value.Equal (SQL =, NULL equal to NULL), except that two FLOAT64
// NaNs are one value.
func sameCell(a, b col.Value) bool {
	if a.Type == col.FLOAT64 && b.Type == col.FLOAT64 && !a.Null && !b.Null && math.IsNaN(a.F) && math.IsNaN(b.F) {
		return true
	}
	return a.Equal(b)
}

func expectIdentical(t *testing.T, q string, serial, par *Result) {
	t.Helper()
	if len(par.Rows) != len(serial.Rows) {
		t.Fatalf("%q: %d rows parallel vs %d serial", q, len(par.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		for c := range serial.Rows[i] {
			if !sameCell(serial.Rows[i][c], par.Rows[i][c]) {
				t.Fatalf("%q row %d col %d: parallel %v vs serial %v", q, i, c, par.Rows[i][c], serial.Rows[i][c])
			}
		}
	}
	if par.Stats != serial.Stats {
		t.Fatalf("%q stats: parallel %+v vs serial %+v", q, par.Stats, serial.Stats)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	e := newPartitionedEngine(t, 8, 2000)
	// Widths below, equal to, and above the file count (uneven partitions
	// included).
	for _, width := range []int{2, 3, 8, 13} {
		for _, q := range parallelQueries {
			serial, par := runBoth(t, e, q, width)
			expectIdentical(t, fmt.Sprintf("%s @%d", q, width), serial, par)
		}
	}
}

// mergeSideQueries exercise the splits that parallelize work downstream of
// the scan: joins probed in the workers (cross, LEFT with an ON residual,
// inner with and without aggregation; a join without aggregation or top-N
// runs whole on the VM and in the merge on CF) and worker top-N for
// ORDER BY + LIMIT, both over a single
// scan and over a join. Sort keys are total orders so serial and parallel
// results compare row for row.
var mergeSideQueries = []string{
	"SELECT COUNT(*), SUM(f_val + d_key) FROM fact, dim",
	"SELECT f_key, d_name FROM fact LEFT JOIN dim ON f_dim = d_key AND d_name <> 'dim-03' WHERE f_key < 64 ORDER BY f_key, d_name",
	"SELECT f_key, f_val, d_name FROM fact JOIN dim ON f_dim = d_key WHERE f_val > 900 ORDER BY f_val DESC, f_key LIMIT 7",
	"SELECT f_key, f_val FROM fact WHERE f_val > 100 ORDER BY f_val DESC, f_key LIMIT 10 OFFSET 3",
	"SELECT f_key FROM fact LEFT JOIN dim ON f_dim = d_key AND d_key < 8 ORDER BY f_key LIMIT 9",
	// MaxInt64 LIMIT with an OFFSET would overflow the per-worker top-N
	// bound; the splitter must fall back rather than wrap negative.
	"SELECT f_key FROM fact WHERE f_key < 30 ORDER BY f_key LIMIT 9223372036854775807 OFFSET 2",
	// Heavy ties at the top-N cutoff: contiguous partitions must resolve
	// them to the same rows the serial stable sort keeps.
	"SELECT f_key FROM fact ORDER BY f_cat LIMIT 5",
	// No ORDER BY: group first-appearance order must match serial too.
	"SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat",
	"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key AND f_key < 40 ORDER BY f_key",
	"SELECT d_name, COUNT(*) FROM fact JOIN dim ON f_dim = d_key WHERE f_val > 500 GROUP BY d_name ORDER BY d_name",
	// Join chains: tag reduces dim's build, and the workers probe both
	// joins (partial aggregation, top-N and a plain probe).
	"SELECT d_name, t_label, COUNT(*), SUM(f_val) FROM fact, dim, tag WHERE f_dim = d_key AND d_key = t_dim AND t_label = 'a' GROUP BY d_name, t_label ORDER BY d_name, t_label",
	"SELECT f_key, d_name, t_w FROM fact, dim, tag WHERE f_dim = d_key AND d_key = t_dim AND f_val < 990 ORDER BY f_val DESC, f_key, t_w LIMIT 9",
	"SELECT f_key, t_label, t_w FROM fact, dim, tag WHERE f_dim = d_key AND d_key = t_dim AND f_key < 300 ORDER BY f_key, t_w",
}

// TestParallelMergeSideMatchesSerial asserts result, stats and billing
// equality between the serial path and the merge-side parallel splits at
// widths below, at, and above the partition count, and between the serial
// path and the same queries split for CF, whose workers read their own
// builds.
func TestParallelMergeSideMatchesSerial(t *testing.T) {
	e := newPartitionedEngine(t, 8, 2000)
	for _, width := range []int{1, 2, 8} {
		for _, q := range mergeSideQueries {
			serial, par := runBoth(t, e, q, width)
			expectIdentical(t, fmt.Sprintf("%s @%d", q, width), serial, par)
			if width > 1 {
				cf := runDist(t, e, q, width, &LocalInvoker{Engine: e})
				expectDistMatchesSerial(t, fmt.Sprintf("%s @%d CF", q, width), serial, cf)
			}
		}
	}
}

func TestParallelDeterministic(t *testing.T) {
	e := newPartitionedEngine(t, 6, 1500)
	ctx := context.Background()
	// No ORDER BY: output order comes from group first-appearance, which
	// the partition-ordered merge must keep stable across runs.
	q := "SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat"
	stmt, _ := sql.Parse(q)
	sel := stmt.(*sql.Select)
	var first []string
	for run := 0; run < 5; run++ {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunPlanParallel(ctx, node, 4)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, r := range res.Rows {
			rows = append(rows, r[0].String()+"|"+r[1].String())
		}
		if run == 0 {
			first = rows
			continue
		}
		if strings.Join(rows, ",") != strings.Join(first, ",") {
			t.Fatalf("run %d order %v != run 0 order %v", run, rows, first)
		}
	}
}

func TestParallelFallbacks(t *testing.T) {
	e := newPartitionedEngine(t, 1, 500)
	ctx := context.Background()

	// Single-file table: the parallel entry point must produce the serial
	// answer (it degenerates to one partition).
	serial, par := runBoth(t, e, "SELECT f_cat, COUNT(*) FROM fact GROUP BY f_cat ORDER BY f_cat", 8)
	expectIdentical(t, "single-file", serial, par)

	// Empty table: no files to split — falls back to the serial path.
	if _, err := e.Execute(ctx, "db", "CREATE TABLE empty (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sql.Parse("SELECT COUNT(*) FROM empty")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanParallel(ctx, node, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("empty-table count = %v", res.Rows)
	}
}

// TestParallelLimitBillsLikeSerial: a LIMIT with no blocking operator below
// it stops pulling early, so neither tier may split it — workers on either
// tier would scan their whole partitions, billing more scanned bytes than
// the lazy serial path. split declines it for both,
// and the parallel entry point then bills exactly like serial. (LIMIT under
// a sort is covered by parallelQueries — the sort drains everything on
// every path.)
func TestParallelLimitBillsLikeSerial(t *testing.T) {
	e := newPartitionedEngine(t, 8, 2000)
	for _, q := range []string{
		"SELECT f_key FROM fact LIMIT 5",
		"SELECT f_key, f_val FROM fact WHERE f_val > 10 LIMIT 3 OFFSET 2",
	} {
		if _, err := e.SplitForCF(planNode(t, e, q), "lazy-limit", 4); err == nil {
			t.Fatalf("%q: split accepted a merge that may stop early", q)
		}
		serial, par := runBoth(t, e, q, 4)
		expectIdentical(t, q, serial, par)
	}
}

// TestParallelStreamingPlanRunsWhole: a VM worker hands the merge its
// finished output, so only a worker plan that blocks anyway — a partial
// aggregate or a top-N — is split. A plan whose worker would stream (a join
// without aggregation, a DISTINCT aggregate, a selective scan) runs whole,
// with no worker span, and matches the serial run in rows, stats and
// billed bytes at every width.
func TestParallelStreamingPlanRunsWhole(t *testing.T) {
	e := newPartitionedEngine(t, 8, 2000)
	for _, c := range []struct {
		q     string
		split bool
	}{
		{"SELECT f_key, d_name FROM fact, dim WHERE f_dim = d_key AND f_key < 40 ORDER BY f_key", false},
		{"SELECT COUNT(DISTINCT f_cat), COUNT(DISTINCT f_dim) FROM fact", false},
		{"SELECT f_key, f_val FROM fact WHERE f_key >= 100 AND f_key < 110", false},
		{"SELECT f_cat, COUNT(*), SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat", true},
		{"SELECT f_key, f_val, d_name FROM fact JOIN dim ON f_dim = d_key WHERE f_val > 900 ORDER BY f_val DESC, f_key LIMIT 7", true},
	} {
		serial, err := e.RunPlan(context.Background(), planNode(t, e, c.q))
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{2, 8} {
			what := fmt.Sprintf("%s @%d", c.q, width)
			par, data := tracedRun(t, e, c.q, width)
			if n := countPrefix(data, "worker:"); (n > 0) != c.split {
				t.Errorf("%s: %d worker spans, want split=%v", what, n, c.split)
			}
			expectIdentical(t, what, serial, par)
		}
	}
}

func TestParallelNoIntermediateObjects(t *testing.T) {
	store := objstore.NewMemory()
	e := New(catalog.New(), store)
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE fact (f_key BIGINT NOT NULL, f_val DOUBLE NOT NULL)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 4; f++ {
		k := col.NewVector(col.INT64, 1000)
		v := col.NewVector(col.FLOAT64, 1000)
		for r := 0; r < 1000; r++ {
			k.Ints[r] = int64(f*1000 + r)
			v.Floats[r] = float64(r)
		}
		if err := e.LoadBatch("db", "fact", col.NewBatch(k, v), pixfile.WriterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	objects, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	before := len(objects)
	stmt, _ := sql.Parse("SELECT SUM(f_val) FROM fact")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanParallel(ctx, node, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BytesIntermediate != 0 {
		t.Fatalf("parallel VM run accounted %d intermediate bytes", res.Stats.BytesIntermediate)
	}
	objects, err = store.List("")
	if err != nil {
		t.Fatal(err)
	}
	if after := len(objects); after != before {
		t.Fatalf("parallel VM run wrote %d objects to the store", after-before)
	}
}

func TestParallelConcurrentQueries(t *testing.T) {
	e := newPartitionedEngine(t, 8, 1000)
	refs := make(map[string]*Result)
	for _, q := range parallelQueries {
		serial, _ := runBoth(t, e, q, 1)
		refs[q] = serial
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i, q := range parallelQueries {
				stmt, err := sql.Parse(q)
				if err != nil {
					errs <- err
					return
				}
				node, err := e.PlanQuery("db", stmt.(*sql.Select))
				if err != nil {
					errs <- err
					return
				}
				res, err := e.RunPlanParallel(ctx, node, 1+(g+i)%5)
				if err != nil {
					errs <- fmt.Errorf("%q: %w", q, err)
					return
				}
				ref := refs[q]
				if len(res.Rows) != len(ref.Rows) || res.Stats != ref.Stats {
					errs <- fmt.Errorf("%q: diverged under concurrency", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestParallelCancellation(t *testing.T) {
	e := newPartitionedEngine(t, 8, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stmt, _ := sql.Parse("SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunPlanParallel(ctx, node, 4); err == nil {
		t.Fatal("canceled context did not abort the parallel run")
	}
}

func TestParallelWorkerErrorPropagates(t *testing.T) {
	e := newPartitionedEngine(t, 6, 500)
	// Corrupt one of the table's files so exactly one worker fails.
	files := mustTable(t, e, "fact").Files
	if err := e.Store().Put(files[3].Key, []byte("not a pixfile")); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sql.Parse("SELECT SUM(f_val) FROM fact")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RunPlanParallel(context.Background(), node, 6)
	if err == nil {
		t.Fatal("corrupted partition did not fail the query")
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("root cause masked by cancellation: %v", err)
	}
}

func mustTable(t *testing.T, e *Engine, name string) *catalog.Table {
	t.Helper()
	tab, err := e.Catalog().GetTable("db", name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}
