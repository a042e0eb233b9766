package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
)

// newTestEngine loads a small TPC-H-flavoured dataset.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(catalog.New(), objstore.NewMetered(objstore.NewMemory()))
	ctx := context.Background()
	mustExec := func(q string) {
		t.Helper()
		if _, err := e.Execute(ctx, "tpch", q); err != nil {
			t.Fatalf("exec %q: %v", q, err)
		}
	}
	mustExec("CREATE DATABASE tpch")
	mustExec(`CREATE TABLE nation (n_nationkey BIGINT NOT NULL, n_name VARCHAR NOT NULL, n_regionkey BIGINT NOT NULL)`)
	mustExec(`CREATE TABLE customer (c_custkey BIGINT NOT NULL, c_name VARCHAR NOT NULL, c_nationkey BIGINT NOT NULL, c_mktsegment VARCHAR NOT NULL, c_acctbal DOUBLE NOT NULL)`)
	mustExec(`CREATE TABLE orders (o_orderkey BIGINT NOT NULL, o_custkey BIGINT NOT NULL, o_totalprice DOUBLE NOT NULL, o_orderdate DATE NOT NULL, o_comment VARCHAR)`)
	mustExec(`CREATE TABLE lineitem (l_orderkey BIGINT NOT NULL, l_partkey BIGINT NOT NULL, l_quantity DOUBLE NOT NULL, l_extendedprice DOUBLE NOT NULL, l_discount DOUBLE NOT NULL, l_returnflag VARCHAR NOT NULL, l_shipdate DATE NOT NULL)`)

	mustExec(`INSERT INTO nation VALUES
		(0, 'ALGERIA', 0), (1, 'ARGENTINA', 1), (2, 'BRAZIL', 1), (3, 'CANADA', 1), (4, 'EGYPT', 4)`)
	mustExec(`INSERT INTO customer VALUES
		(1, 'Customer#1', 1, 'BUILDING', 711.56),
		(2, 'Customer#2', 2, 'AUTOMOBILE', 121.65),
		(3, 'Customer#3', 1, 'BUILDING', 7498.12),
		(4, 'Customer#4', 4, 'MACHINERY', 2866.83),
		(5, 'Customer#5', 3, 'HOUSEHOLD', 794.47)`)
	mustExec(`INSERT INTO orders VALUES
		(100, 1, 1000.50, '1995-01-10', 'first'),
		(101, 1, 250.25, '1995-03-01', NULL),
		(102, 2, 870.00, '1994-06-15', 'mid'),
		(103, 3, 4500.75, '1995-02-20', 'big'),
		(104, 4, 120.10, '1993-11-02', 'old'),
		(105, 5, 9999.99, '1995-03-10', 'huge')`)
	mustExec(`INSERT INTO lineitem VALUES
		(100, 1, 10, 1000.0, 0.05, 'N', '1995-01-15'),
		(100, 2, 5, 500.0, 0.00, 'N', '1995-01-20'),
		(101, 3, 2, 250.0, 0.10, 'R', '1995-03-05'),
		(102, 1, 8, 870.0, 0.07, 'A', '1994-06-20'),
		(103, 4, 20, 4500.0, 0.02, 'N', '1995-02-25'),
		(103, 2, 1, 100.0, 0.00, 'R', '1995-03-01'),
		(104, 5, 3, 120.0, 0.04, 'A', '1993-11-10'),
		(105, 1, 50, 9999.0, 0.06, 'N', '1995-03-12')`)
	return e
}

func query(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	r, err := e.Execute(context.Background(), "tpch", q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return r
}

// rowsAsStrings flattens result rows for easy comparison.
func rowsAsStrings(r *Result) []string {
	var out []string
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func expectRows(t *testing.T, r *Result, want ...string) {
	t.Helper()
	got := rowsAsStrings(r)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q\nall: %v", i, got[i], want[i], got)
		}
	}
}

func TestSimpleProjectionAndFilter(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT c_name, c_acctbal FROM customer WHERE c_acctbal > 1000 ORDER BY c_acctbal DESC")
	expectRows(t, r, "Customer#3|7498.12", "Customer#4|2866.83")
	if r.Columns[0] != "c_name" || r.Types[1] != col.FLOAT64 {
		t.Fatalf("metadata wrong: %v %v", r.Columns, r.Types)
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS revenue FROM lineitem WHERE l_orderkey = 100 ORDER BY revenue")
	expectRows(t, r, "100|500", "100|950")
}

func TestWhereIn(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT n_name FROM nation WHERE n_nationkey IN (1, 3) ORDER BY n_name")
	expectRows(t, r, "ARGENTINA", "CANADA")
	r = query(t, e, "SELECT n_name FROM nation WHERE n_nationkey NOT IN (0, 1, 2, 3) ORDER BY n_name")
	expectRows(t, r, "EGYPT")
}

func TestBetweenAndDates(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT o_orderkey FROM orders
		WHERE o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1995-02-28' ORDER BY o_orderkey`)
	expectRows(t, r, "100", "103")
}

func TestLikeAndStringFuncs(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT c_name FROM customer WHERE c_mktsegment LIKE 'BUILD%' ORDER BY c_custkey")
	expectRows(t, r, "Customer#1", "Customer#3")
	r = query(t, e, "SELECT UPPER(n_name), LENGTH(n_name), SUBSTR(n_name, 1, 3) FROM nation WHERE n_nationkey = 2")
	expectRows(t, r, "BRAZIL|6|BRA")
}

func TestNullSemantics(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT o_orderkey FROM orders WHERE o_comment IS NULL")
	expectRows(t, r, "101")
	r = query(t, e, "SELECT COUNT(*), COUNT(o_comment) FROM orders")
	expectRows(t, r, "6|5")
	// Comparison with NULL filters the row out (not an error).
	r = query(t, e, "SELECT o_orderkey FROM orders WHERE o_comment = 'first'")
	expectRows(t, r, "100")
	// COALESCE.
	r = query(t, e, "SELECT COALESCE(o_comment, 'none') FROM orders WHERE o_orderkey = 101")
	expectRows(t, r, "none")
}

func TestGlobalAggregates(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT COUNT(*), SUM(l_quantity), MIN(l_shipdate), MAX(l_shipdate), AVG(l_discount) FROM lineitem")
	var sum float64
	for _, d := range []float64{0.05, 0.00, 0.10, 0.07, 0.02, 0.00, 0.04, 0.06} {
		sum += d
	}
	expectRows(t, r, "8|99|1993-11-10|1995-03-12|"+col.FormatFloat(sum/8))
}

func TestGroupByHaving(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS total
		FROM lineitem GROUP BY l_returnflag HAVING COUNT(*) >= 2 ORDER BY l_returnflag`)
	expectRows(t, r, "A|2|990", "N|4|15999", "R|2|350")
}

func TestGroupByExpression(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT YEAR(o_orderdate) AS y, COUNT(*) FROM orders GROUP BY YEAR(o_orderdate) ORDER BY y`)
	expectRows(t, r, "1993|1", "1994|1", "1995|4")
}

func TestCountDistinct(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT COUNT(DISTINCT l_returnflag), COUNT(DISTINCT l_orderkey) FROM lineitem")
	expectRows(t, r, "3|6")
}

func TestDistinctSelect(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT DISTINCT l_returnflag FROM lineitem ORDER BY l_returnflag")
	expectRows(t, r, "A", "N", "R")
}

func TestExplicitJoin(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT c.c_name, n.n_name FROM customer c
		JOIN nation n ON c.c_nationkey = n.n_nationkey
		WHERE n.n_name = 'ARGENTINA' ORDER BY c.c_custkey`)
	expectRows(t, r, "Customer#1|ARGENTINA", "Customer#3|ARGENTINA")
}

func TestCommaJoinThreeTables(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT c.c_name, o.o_orderkey, l.l_quantity
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
			AND c.c_mktsegment = 'BUILDING' AND l.l_returnflag = 'R'
		ORDER BY o.o_orderkey, l.l_quantity`)
	expectRows(t, r, "Customer#1|101|2", "Customer#3|103|1")
}

func TestLeftJoin(t *testing.T) {
	e := newTestEngine(t)
	// Nation 0 (ALGERIA) and 4 (EGYPT w/ customer#4)... ALGERIA has no customers.
	r := query(t, e, `SELECT n.n_name, COUNT(c.c_custkey) AS cnt
		FROM nation n LEFT JOIN customer c ON n.n_nationkey = c.c_nationkey
		GROUP BY n.n_name ORDER BY n.n_name`)
	expectRows(t, r, "ALGERIA|0", "ARGENTINA|2", "BRAZIL|1", "CANADA|1", "EGYPT|1")
}

func TestSelfJoin(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT a.n_name, b.n_name FROM nation a JOIN nation b ON a.n_regionkey = b.n_regionkey
		WHERE a.n_nationkey < b.n_nationkey ORDER BY a.n_name, b.n_name`)
	expectRows(t, r, "ARGENTINA|BRAZIL", "ARGENTINA|CANADA", "BRAZIL|CANADA")
}

func TestOrderByMulti(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT l_returnflag, l_quantity FROM lineitem ORDER BY l_returnflag DESC, l_quantity ASC LIMIT 3")
	expectRows(t, r, "R|1", "R|2", "N|5")
}

func TestOrderByHiddenKey(t *testing.T) {
	e := newTestEngine(t)
	// Sort key not in the select list.
	r := query(t, e, "SELECT c_name FROM customer ORDER BY c_acctbal DESC LIMIT 2")
	expectRows(t, r, "Customer#3", "Customer#4")
	if len(r.Columns) != 1 {
		t.Fatalf("hidden key leaked: %v", r.Columns)
	}
}

func TestOrderByPosition(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT c_name, c_acctbal FROM customer ORDER BY 2 DESC LIMIT 1")
	expectRows(t, r, "Customer#3|7498.12")
}

func TestLimitOffset(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT n_name FROM nation ORDER BY n_nationkey LIMIT 2 OFFSET 1")
	expectRows(t, r, "ARGENTINA", "BRAZIL")
}

func TestCaseExpression(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT o_orderkey, CASE WHEN o_totalprice > 5000 THEN 'big' WHEN o_totalprice > 500 THEN 'mid' ELSE 'small' END AS bucket
		FROM orders ORDER BY o_orderkey`)
	expectRows(t, r, "100|mid", "101|small", "102|mid", "103|mid", "104|small", "105|big")
}

func TestCast(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SELECT CAST(o_totalprice AS BIGINT), CAST(o_orderkey AS VARCHAR) FROM orders WHERE o_orderkey = 100")
	expectRows(t, r, "1000|100")
}

func TestTPCHQ1Shape(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT l_returnflag, SUM(l_quantity) AS sum_qty,
			SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
			AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order
		FROM lineitem WHERE l_shipdate <= DATE '1995-03-05'
		GROUP BY l_returnflag ORDER BY l_returnflag`)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", rowsAsStrings(r))
	}
	// Spot-check group A: lineitems (102: 870 @0.07, 104: 120 @0.04).
	got := rowsAsStrings(r)[0]
	want := fmt.Sprintf("A|11|%s|5.5|2", col.FormatFloat(870*0.93+120*0.96))
	if got != want {
		t.Fatalf("group A = %q, want %q", got, want)
	}
}

func TestTPCHQ3Shape(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT l.l_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue, o.o_orderdate
		FROM customer c, orders o, lineitem l
		WHERE c.c_mktsegment = 'BUILDING' AND c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
			AND o.o_orderdate < DATE '1995-03-15'
		GROUP BY l.l_orderkey, o.o_orderdate
		ORDER BY revenue DESC LIMIT 10`)
	got := rowsAsStrings(r)
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	if !strings.HasPrefix(got[0], "103|") {
		t.Fatalf("top order = %v", got)
	}
}

func TestTPCHQ6Shape(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, `SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
		WHERE l_shipdate >= DATE '1995-01-01' AND l_shipdate < DATE '1996-01-01'
			AND l_discount BETWEEN 0.02 AND 0.08 AND l_quantity < 30`)
	expectRows(t, r, col.FormatFloat(1000*0.05+4500*0.02))
}

func TestDDLAndShow(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "SHOW TABLES")
	expectRows(t, r, "customer", "lineitem", "nation", "orders")
	r = query(t, e, "SHOW DATABASES")
	expectRows(t, r, "tpch")
	r = query(t, e, "DESCRIBE nation")
	if len(r.Rows) != 3 || r.Rows[0][0].S != "n_nationkey" {
		t.Fatalf("describe = %v", rowsAsStrings(r))
	}
	query(t, e, "CREATE TABLE tmp (a BIGINT)")
	query(t, e, "DROP TABLE tmp")
	if _, err := e.Execute(context.Background(), "tpch", "DROP TABLE tmp"); err == nil {
		t.Fatalf("double drop succeeded")
	}
	query(t, e, "DROP TABLE IF EXISTS tmp")
}

func TestExplain(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "EXPLAIN SELECT c_name FROM customer WHERE c_acctbal > 100")
	text := strings.Join(rowsAsStrings(r), "\n")
	if !strings.Contains(text, "Scan tpch.customer") || !strings.Contains(text, "filter=") {
		t.Fatalf("explain = %s", text)
	}
}

func TestPredicatePushdownIntoScan(t *testing.T) {
	e := newTestEngine(t)
	r := query(t, e, "EXPLAIN SELECT c_name FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey WHERE c.c_acctbal > 100 AND n.n_name = 'BRAZIL'")
	text := strings.Join(rowsAsStrings(r), "\n")
	// Both single-table conjuncts should be inside their scans, not in a
	// post-join filter.
	if strings.Contains(text, "\nFilter") {
		t.Fatalf("found post-join filter:\n%s", text)
	}
	if !strings.Contains(text, "zonemap=") {
		t.Fatalf("zone-map predicates missing:\n%s", text)
	}
}

func TestQueryErrors(t *testing.T) {
	e := newTestEngine(t)
	bad := []string{
		"SELECT nope FROM customer",
		"SELECT * FROM missing_table",
		"SELECT c_name FROM customer WHERE c_acctbal > 'x'",
		"SELECT SUM(c_name) FROM customer",
		"SELECT c_name FROM customer GROUP BY c_acctbal",
		"SELECT c_custkey FROM customer WHERE SUM(c_acctbal) > 10",
		"SELECT c_custkey, c_custkey FROM customer c, customer c", // dup binding
		"SELECT NOT c_acctbal FROM customer",
		"SELECT c_acctbal % 2 FROM customer", // float modulo
		"SELECT n_name FROM nation ORDER BY 99",
	}
	for _, q := range bad {
		if _, err := e.Execute(context.Background(), "tpch", q); err == nil {
			t.Errorf("query %q unexpectedly succeeded", q)
		}
	}
}

func TestBytesScannedAccounting(t *testing.T) {
	e := newTestEngine(t)
	all := query(t, e, "SELECT * FROM lineitem")
	one := query(t, e, "SELECT l_orderkey FROM lineitem")
	if one.Stats.BytesScanned >= all.Stats.BytesScanned {
		t.Fatalf("projection did not reduce bytes scanned: %d vs %d", one.Stats.BytesScanned, all.Stats.BytesScanned)
	}
	if all.Stats.RowsScanned != 8 {
		t.Fatalf("rows scanned = %d", all.Stats.RowsScanned)
	}
}

func TestZoneMapPruning(t *testing.T) {
	// Load a table with many row groups of sequential keys, then query a
	// narrow range: most groups must be pruned and the answer exact.
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	if _, err := e.Execute(ctx, "db", "CREATE DATABASE db"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(ctx, "db", "CREATE TABLE seq (k BIGINT NOT NULL, v DOUBLE NOT NULL)"); err != nil {
		t.Fatal(err)
	}
	k := col.NewVector(col.INT64, 10000)
	v := col.NewVector(col.FLOAT64, 10000)
	for i := 0; i < 10000; i++ {
		k.Ints[i] = int64(i)
		v.Floats[i] = float64(i) / 2
	}
	if err := e.LoadBatch("db", "seq", col.NewBatch(k, v), pixfile.WriterOptions{RowGroupSize: 500}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*), SUM(v) FROM seq WHERE k >= 1000 AND k < 1500"
	want := "500|" + col.FormatFloat(float64(1000+1499)*500/2/2)
	r, err := e.Execute(ctx, "db", q)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, r, want)
	if r.Stats.RowGroupsPruned < 15 {
		t.Fatalf("pruned only %d groups (read %d)", r.Stats.RowGroupsPruned, r.Stats.RowGroupsRead)
	}
	if r.Stats.RowGroupsRead > 2 {
		t.Fatalf("read %d groups, want <= 2", r.Stats.RowGroupsRead)
	}

	// Take the pushdown away one step at a time. Without zone maps every
	// group's predicate column is read, but late materialization still
	// skips the payload chunks of groups where no row matches; with the
	// filter hoisted above the scan every projected chunk is billed. The
	// answer never changes; the billed bytes strictly grow.
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	run := func(strip func(*plan.AggNode, *plan.ScanNode)) *Result {
		t.Helper()
		node, err := e.PlanQuery("db", stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		agg, ok := node.Children()[0].(*plan.AggNode)
		if !ok {
			t.Fatalf("plan is %T over %T, want a projection over *plan.AggNode", node, node.Children()[0])
		}
		strip(agg, agg.Child.(*plan.ScanNode))
		res, err := e.RunPlan(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		expectRows(t, res, want)
		return res
	}
	lateMat := run(func(_ *plan.AggNode, scan *plan.ScanNode) { scan.ZonePreds = nil })
	naive := run(func(agg *plan.AggNode, scan *plan.ScanNode) {
		agg.Child = &plan.FilterNode{Child: scan, Cond: scan.Filter}
		scan.ZonePreds, scan.Filter = nil, nil
	})
	if lateMat.Stats.RowGroupsPruned != 0 || lateMat.Stats.ColumnChunksSkipped == 0 {
		t.Fatalf("late-materialized scan stats = %+v, want no pruning and some chunks skipped", lateMat.Stats)
	}
	if naive.Stats.ColumnChunksSkipped != 0 {
		t.Fatalf("naive scan skipped %d chunks", naive.Stats.ColumnChunksSkipped)
	}
	if !(r.Stats.BytesScanned < lateMat.Stats.BytesScanned && lateMat.Stats.BytesScanned < naive.Stats.BytesScanned) {
		t.Fatalf("billed bytes zone-pruned %d, late-materialized %d, naive %d: want strictly increasing",
			r.Stats.BytesScanned, lateMat.Stats.BytesScanned, naive.Stats.BytesScanned)
	}
}

func TestInsertValidation(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	bad := []string{
		"INSERT INTO nation VALUES (1, 'X')",       // arity
		"INSERT INTO nation VALUES (NULL, 'X', 1)", // NOT NULL
		"INSERT INTO nation VALUES ('s', 'X', 1)",  // type
		"INSERT INTO nation (n_bogus) VALUES (1)",  // unknown col
		"INSERT INTO missing VALUES (1)",           // unknown table
	}
	for _, q := range bad {
		if _, err := e.Execute(ctx, "tpch", q); err == nil {
			t.Errorf("insert %q unexpectedly succeeded", q)
		}
	}
	// Date coercion from string.
	if _, err := e.Execute(ctx, "tpch", "INSERT INTO orders VALUES (200, 1, 1.0, '1999-12-31', 'x')"); err != nil {
		t.Fatalf("date coercion failed: %v", err)
	}
	r := query(t, e, "SELECT o_orderdate FROM orders WHERE o_orderkey = 200")
	expectRows(t, r, "1999-12-31")
}
