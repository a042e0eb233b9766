package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/vec"
)

// bareNullQueries select a NULL the binder can type from nothing but the
// fallback type (or, under unary minus, BIGINT).
var bareNullQueries = []string{
	"SELECT NULL FROM nh",
	"SELECT -NULL FROM nh",
	"SELECT COALESCE(NULL, NULL) FROM nh",
	"SELECT NULL, COUNT(*) FROM nh",
	"SELECT n_a, NULL FROM nh GROUP BY n_a",
	"SELECT NULL FROM nh WHERE n_key < 0",
	"SELECT NULL FROM nh LIMIT 1",
}

// TestBareNullSelects: every statement returns NULL rows in every
// execution variant, as the oracle does. A bare NULL column is VARCHAR,
// -NULL is BIGINT.
func TestBareNullSelects(t *testing.T) {
	e := newNullHeavyEngine(t)
	for _, q := range bareNullQueries {
		results := runVecEquivQuery(t, e, q)
		expectOracle(t, q, q, e, results...)
		res := results[0]
		nullCol := len(res.Columns) - 1
		if strings.HasPrefix(q, "SELECT NULL") {
			nullCol = 0
		}
		for _, row := range res.Rows {
			if !row[nullCol].Null {
				t.Fatalf("%s: column %d holds %v, want NULL", q, nullCol, row[nullCol])
			}
		}
		want := col.STRING
		if strings.HasPrefix(q, "SELECT -NULL") {
			want = col.INT64
		}
		if got := res.Types[nullCol]; got != want {
			t.Fatalf("%s: NULL column typed %s, want %s", q, got, want)
		}
	}
}

// TestProbeShapesMatchOracle runs the expression classes the vec kernels
// once declined — casts, operands that are all literals, NULL literals,
// computed LIKE patterns and predicates in value position — in select
// lists and in WHERE, and compares every execution variant with the
// oracle.
func TestProbeShapesMatchOracle(t *testing.T) {
	e := newNullHeavyEngine(t)
	exprs := []string{
		"CAST(n_b AS BIGINT)", "CAST(n_a AS VARCHAR)", "CAST(n_b AS VARCHAR)",
		"CAST(n_flag AS VARCHAR)", "CAST(n_flag AS BIGINT)", "CAST(n_key AS DOUBLE)",
		"CAST(CAST(n_key AS VARCHAR) AS BIGINT)", "CAST(CAST(n_b AS VARCHAR) AS DOUBLE)",
		"CAST(CAST('2020-01-02' AS DATE) AS TIMESTAMP)",
		"1 = 1", "1 + 2", "CAST('2020-01-02' AS DATE) + 3",
		"n_a = NULL", "n_a + NULL", "NULL IS NULL", "n_b < NULL",
		"n_s LIKE n_s", "'abc' LIKE n_s", "n_s LIKE CONCAT(SUBSTR(n_s, 1, 2), '%')",
		"n_s LIKE 'wo%'", "NOT n_flag", "n_flag AND n_a > 0", "n_a IN (1, 2, NULL)",
		"(n_a > 0) = n_flag", "COALESCE(n_flag, n_a IS NULL)",
	}
	for _, x := range exprs {
		for _, q := range []string{
			fmt.Sprintf("SELECT n_key, %s FROM nh WHERE n_key %% 17 = 0 ORDER BY n_key", x),
			fmt.Sprintf("SELECT COUNT(*) FROM nh WHERE %s", x),
		} {
			if strings.HasPrefix(q, "SELECT COUNT") && !boolTyped(t, e, x) {
				continue
			}
			expectOracle(t, q, q, e, runVecEquivQuery(t, e, q)...)
		}
	}
}

// boolTyped reports whether expression x binds as BOOLEAN over nh.
func boolTyped(t *testing.T, e *Engine, x string) bool {
	t.Helper()
	node := planNode(t, e, "SELECT "+x+" FROM nh")
	return node.Schema().Fields[0].Type == col.BOOL
}

// TestCastFailureIgnoresBatchBoundaries pins the rule for a CAST that
// fails: every CASE arm sees every row, so a string that does not parse
// fails the query whether or not the row holding it takes the arm, and
// wherever row-group boundaries fall. The bad strings sit in one row group
// and the rows that take the CAST arm in another.
func TestCastFailureIgnoresBatchBoundaries(t *testing.T) {
	ctx := context.Background()
	a := col.NewVector(col.INT64, 4)
	copy(a.Ints, []int64{0, 0, 1, 1})
	s := col.NewVector(col.STRING, 4)
	copy(s.Strs, []string{"x", "y", "5", "6"})
	rows := col.NewBatch(a, s)
	const failing = "SELECT CASE WHEN c_a > 0 THEN CAST(c_s AS BIGINT) ELSE 0 END FROM cf"
	const passing = "SELECT CASE WHEN c_a > 0 THEN CAST(c_s AS BIGINT) ELSE 0 END FROM cf WHERE c_a > 0"
	for _, rg := range []int{2, 4} {
		e := New(catalog.New(), objstore.NewMemory())
		for _, q := range []string{"CREATE DATABASE db", "CREATE TABLE cf (c_a BIGINT, c_s VARCHAR)"} {
			if _, err := e.Execute(ctx, "db", q); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.LoadBatch("db", "cf", rows, pixfile.WriterOptions{RowGroupSize: rg}); err != nil {
			t.Fatal(err)
		}
		tables := map[string]*col.Batch{"cf": rows}
		if _, err := oracleOver(t, e, failing, tables); err == nil {
			t.Fatalf("row groups of %d: oracle ran %q", rg, failing)
		}
		node := planNode(t, e, failing)
		for _, width := range []int{1, 2} {
			if _, err := e.RunPlanParallel(ctx, node, width); err == nil {
				t.Fatalf("row groups of %d, width %d: %q succeeded", rg, width, failing)
			}
		}
		if _, err := e.RunPlan(ctx, node); err == nil {
			t.Fatalf("row groups of %d: %q succeeded serially", rg, failing)
		}
		res, err := e.Execute(ctx, "db", passing)
		if err != nil {
			t.Fatalf("row groups of %d: %q: %v", rg, passing, err)
		}
		if got := rowsAsStrings(res); fmt.Sprint(got) != "[5 6]" {
			t.Fatalf("row groups of %d: %q = %v", rg, passing, got)
		}
	}
}

// newFuzzEngine loads the first 512 rows of the nh fixture, in row groups
// of 128, and returns them as the oracle's table.
func newFuzzEngine(t testing.TB) (*Engine, *col.Batch) {
	t.Helper()
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		`CREATE TABLE nh (n_key BIGINT NOT NULL, n_a BIGINT, n_b DOUBLE,
			n_s VARCHAR, n_flag BOOLEAN)`,
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	rows := nullHeavyBatches()[0].Slice(0, 512)
	if err := e.LoadBatch("db", "nh", rows, pixfile.WriterOptions{RowGroupSize: 128}); err != nil {
		t.Fatal(err)
	}
	return e, rows
}

// FuzzExprMatchesOracle: a fuzzed expression, wrapped as SELECT <e> FROM
// nh and as SELECT COUNT(*) FROM nh WHERE <e>, never panics the binder,
// vec or the engine; whenever it binds, vec compiles every expression of
// the plan; at every expression site vec and the oracle compute the same
// values and null masks over the site's input, or both fail; and the
// engine fails only where the oracle fails, returning its rows otherwise.
func FuzzExprMatchesOracle(f *testing.F) {
	for _, q := range append(append([]string(nil), aggQueries...), bareNullQueries...) {
		body := strings.TrimPrefix(q, "SELECT ")
		from := strings.Index(body, " FROM ")
		f.Add(body[:from])
		if i := strings.Index(body, " WHERE "); i >= 0 {
			f.Add(strings.Split(body[i+len(" WHERE "):], " GROUP BY")[0])
		}
	}
	for _, x := range []string{
		"CAST(n_b AS BIGINT)", "CAST(n_key AS VARCHAR)", "CAST(n_a AS VARCHAR)",
		"CAST(n_flag AS VARCHAR)", "CAST(n_flag AS BIGINT)", "CAST(n_s AS DATE)",
		"1 = 1", "1 + 2", "CAST('2020-01-02' AS DATE) + 3", "n_a = NULL", "n_a + NULL",
		"n_s LIKE n_s", "'abc' LIKE n_s", "n_s LIKE 'wo%'", "NOT n_flag",
		"n_flag AND n_a > 0", "n_a IN (1, 2, NULL)",
		"SUM(n_a*(1-n_b)), SUM(n_a*n_b), AVG(n_a+n_b)",
		"CASE WHEN n_a > 0 THEN CAST(n_s AS BIGINT) ELSE 0 END",
	} {
		f.Add(x)
	}
	e, rows := newFuzzEngine(f)
	tables := map[string]*col.Batch{"nh": rows}
	scan := func(s *plan.ScanNode) (*col.Batch, error) {
		if s.Table.Name != "nh" {
			return nil, fmt.Errorf("no rows for table %s", s.Table.Name)
		}
		b := &col.Batch{Vecs: make([]*col.Vector, len(s.Cols)), N: rows.N}
		for i, c := range s.Cols {
			b.Vecs[i] = rows.Vecs[c]
		}
		return b, nil
	}
	f.Fuzz(func(t *testing.T, x string) {
		for _, q := range []string{"SELECT " + x + " FROM nh", "SELECT COUNT(*) FROM nh WHERE " + x} {
			stmt, err := sql.Parse(q)
			if err != nil {
				continue
			}
			sel, ok := stmt.(*sql.Select)
			if !ok {
				continue
			}
			node, err := e.PlanQuery("db", sel)
			if err != nil {
				continue
			}
			checkSites(t, q, node, scan)
			res, err := e.RunPlan(context.Background(), node)
			want, werr := oracleOver(t, e, q, tables)
			switch {
			case err != nil && werr == nil:
				t.Fatalf("%s: engine failed where the oracle ran: %v", q, err)
			case err == nil && werr == nil && fmt.Sprint(rowsAsStrings(res)) != fmt.Sprint(want):
				t.Fatalf("%s: engine rows %v, oracle %v", q, rowsAsStrings(res), want)
			}
		}
	})
}

// checkSites compiles every expression of the plan with vec and compares
// each with the oracle over its input, which the oracle computes; a site
// whose input the oracle cannot compute is only compiled.
func checkSites(t *testing.T, q string, n plan.Node, scan func(*plan.ScanNode) (*col.Batch, error)) {
	t.Helper()
	var preds, vals []plan.BoundExpr
	var child plan.Node
	switch x := n.(type) {
	case *plan.ScanNode:
		if x.Filter != nil {
			preds = append(preds, x.Filter)
		}
	case *plan.FilterNode:
		child, preds = x.Child, []plan.BoundExpr{x.Cond}
	case *plan.ProjectNode:
		child, vals = x.Child, x.Exprs
	case *plan.AggNode:
		child, vals = x.Child, append([]plan.BoundExpr(nil), x.GroupBy...)
		for _, a := range x.Aggs {
			if a.Arg != nil {
				vals = append(vals, a.Arg)
			}
		}
	case *plan.JoinNode:
		for _, k := range append(x.LeftKeys, x.RightKeys...) {
			if _, err := vec.CompileValue(k); err != nil {
				t.Fatalf("%s: vec does not compile join key %s: %v", q, k, err)
			}
		}
		if x.Residual != nil {
			if _, err := vec.CompilePredicate(x.Residual); err != nil {
				t.Fatalf("%s: vec does not compile join residual %s: %v", q, x.Residual, err)
			}
		}
		for _, c := range n.Children() {
			checkSites(t, q, c, scan)
		}
		return
	}
	var in *col.Batch
	var inErr error
	if _, isScan := n.(*plan.ScanNode); isScan {
		in, inErr = scan(n.(*plan.ScanNode))
	} else if child != nil {
		in, inErr = oracle.Run(child, scan)
	}
	ev := oracle.NewEvaluator()
	for _, p := range preds {
		prog, err := vec.CompilePredicate(p)
		if err != nil {
			t.Fatalf("%s: vec does not compile %s: %v", q, p, err)
		}
		if inErr != nil || in == nil {
			continue
		}
		got, gerr := prog.Select(in, &vec.Scratch{})
		want, werr := ev.EvalBool(p, in)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%s: %s: vec error %v, oracle error %v", q, p, gerr, werr)
		}
		if gerr == nil && fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %s: vec selects %v, oracle %v", q, p, got, want)
		}
	}
	for _, v := range vals {
		prog, err := vec.CompileValue(v)
		if err != nil {
			t.Fatalf("%s: vec does not compile %s: %v", q, v, err)
		}
		if inErr != nil || in == nil {
			continue
		}
		got, gerr := prog.Eval(in, &vec.Scratch{})
		want, werr := ev.Eval(v, in)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%s: %s: vec error %v, oracle error %v", q, v, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if got.Type != want.Type || got.N != want.N {
			t.Fatalf("%s: %s: vec (%s, %d rows), oracle (%s, %d rows)", q, v, got.Type, got.N, want.Type, want.N)
		}
		for i := 0; i < got.N; i++ {
			if g, w := got.Value(i), want.Value(i); !oracle.SameValue(g, w) {
				t.Fatalf("%s: %s row %d: vec %v, oracle %v", q, v, i, g, w)
			}
		}
	}
	for _, c := range n.Children() {
		checkSites(t, q, c, scan)
	}
}
