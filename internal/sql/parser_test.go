package sql

import (
	"strings"
	"testing"

	"repro/internal/col"
)

// reparse checks print → parse → print is a fixpoint.
func reparse(t *testing.T, input string) Statement {
	t.Helper()
	stmt, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	printed := stmt.String()
	stmt2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", printed, err)
	}
	if printed2 := stmt2.String(); printed2 != printed {
		t.Fatalf("print not a fixpoint:\n  1st: %s\n  2nd: %s", printed, printed2)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := reparse(t, "SELECT a, b FROM t WHERE a > 10 ORDER BY b DESC LIMIT 5")
	sel := stmt.(*Select)
	if len(sel.Items) != 2 || sel.Items[0].Expr.(*ColumnRef).Name != "a" {
		t.Fatalf("items = %+v", sel.Items)
	}
	if len(sel.From) != 1 || sel.From[0].Table.Name != "t" {
		t.Fatalf("from = %+v", sel.From)
	}
	cmp := sel.Where.(*Binary)
	if cmp.Op != ">" || cmp.R.(*Literal).Val.I != 10 {
		t.Fatalf("where = %v", sel.Where)
	}
	if !sel.OrderBy[0].Desc || *sel.Limit != 5 {
		t.Fatalf("order/limit wrong: %+v %v", sel.OrderBy, sel.Limit)
	}
}

func TestParseJoins(t *testing.T) {
	stmt := reparse(t, `SELECT o.o_orderkey, c.c_name
		FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
		LEFT JOIN nation n ON c.c_nationkey = n.n_nationkey`)
	sel := stmt.(*Select)
	if len(sel.From) != 3 {
		t.Fatalf("from = %+v", sel.From)
	}
	if sel.From[1].Join != InnerJoin || sel.From[2].Join != LeftJoin {
		t.Fatalf("join types: %v %v", sel.From[1].Join, sel.From[2].Join)
	}
	if sel.From[1].Table.Binding() != "c" {
		t.Fatalf("alias binding = %q", sel.From[1].Table.Binding())
	}
	if sel.From[2].On == nil {
		t.Fatalf("left join lost ON")
	}
}

func TestParseCommaJoin(t *testing.T) {
	stmt := reparse(t, "SELECT * FROM a, b, c WHERE a.x = b.x AND b.y = c.y")
	sel := stmt.(*Select)
	if len(sel.From) != 3 || sel.From[1].Join != CrossJoin || sel.From[1].On != nil {
		t.Fatalf("comma join = %+v", sel.From)
	}
}

func TestParseAggregates(t *testing.T) {
	stmt := reparse(t, `SELECT l_returnflag, COUNT(*), SUM(l_extendedprice), AVG(l_discount), COUNT(DISTINCT l_orderkey)
		FROM lineitem GROUP BY l_returnflag HAVING COUNT(*) > 100`)
	sel := stmt.(*Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("group/having: %+v %v", sel.GroupBy, sel.Having)
	}
	cnt := sel.Items[1].Expr.(*FuncCall)
	if cnt.Name != "COUNT" || !cnt.Star {
		t.Fatalf("COUNT(*) = %+v", cnt)
	}
	dis := sel.Items[4].Expr.(*FuncCall)
	if !dis.Distinct {
		t.Fatalf("COUNT(DISTINCT) lost distinct: %+v", dis)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := reparse(t, "SELECT * FROM t WHERE a + b * 2 > 10 AND c = 'x' OR d < 5")
	sel := stmt.(*Select)
	// Expect ((a + (b*2) > 10 AND c='x') OR d<5)
	or := sel.Where.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("top op = %s", or.Op)
	}
	and := or.L.(*Binary)
	if and.Op != "AND" {
		t.Fatalf("left op = %s", and.Op)
	}
	gt := and.L.(*Binary)
	add := gt.L.(*Binary)
	if add.Op != "+" {
		t.Fatalf("expected + under >, got %s", add.Op)
	}
	mul := add.R.(*Binary)
	if mul.Op != "*" {
		t.Fatalf("expected * under +, got %s", mul.Op)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	e, err := ParseExpr("(a + b) * 2")
	if err != nil {
		t.Fatal(err)
	}
	mul := e.(*Binary)
	if mul.Op != "*" {
		t.Fatalf("top = %s", mul.Op)
	}
	if add := mul.L.(*Binary); add.Op != "+" {
		t.Fatalf("left = %s", add.Op)
	}
}

func TestParseBetweenInLike(t *testing.T) {
	stmt := reparse(t, `SELECT * FROM t WHERE a BETWEEN 1 AND 10
		AND b IN ('x', 'y') AND c LIKE 'abc%' AND d NOT IN (1, 2) AND e NOT BETWEEN 3 AND 4 AND f NOT LIKE '%z'`)
	sel := stmt.(*Select)
	s := sel.Where.String()
	for _, want := range []string{"BETWEEN", "IN ('x', 'y')", "LIKE 'abc%'", "NOT IN (1, 2)", "NOT BETWEEN"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed WHERE missing %q: %s", want, s)
		}
	}
}

func TestParseIsNull(t *testing.T) {
	e, err := ParseExpr("x IS NOT NULL AND y IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	and := e.(*Binary)
	if !and.L.(*IsNull).Not || and.R.(*IsNull).Not {
		t.Fatalf("IS NULL flags wrong: %v", e)
	}
}

func TestParseDateLiterals(t *testing.T) {
	e, err := ParseExpr("o_orderdate >= DATE '1995-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	cmp := e.(*Binary)
	lit := cmp.R.(*Literal)
	if lit.Val.Type != col.DATE || col.FormatDate(lit.Val.I) != "1995-01-01" {
		t.Fatalf("date literal = %+v", lit.Val)
	}
	if _, err := ParseExpr("DATE 'bogus'"); err == nil {
		t.Fatalf("bad date accepted")
	}
}

func TestParseCase(t *testing.T) {
	stmt := reparse(t, "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END AS sign FROM t")
	sel := stmt.(*Select)
	c := sel.Items[0].Expr.(*Case)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("case = %+v", c)
	}
	if sel.Items[0].Alias != "sign" {
		t.Fatalf("alias = %q", sel.Items[0].Alias)
	}
}

func TestParseCaseWithOperand(t *testing.T) {
	e, err := ParseExpr("CASE x WHEN 1 THEN 'a' ELSE 'b' END")
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*Case)
	cond := c.Whens[0].Cond.(*Binary)
	if cond.Op != "=" {
		t.Fatalf("operand CASE not rewritten: %v", cond)
	}
}

func TestParseCast(t *testing.T) {
	e, err := ParseExpr("CAST(a AS DOUBLE)")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Cast).To != col.FLOAT64 {
		t.Fatalf("cast = %+v", e)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Literal).Val.I != -5 {
		t.Fatalf("folded literal = %v", e)
	}
	e, err = ParseExpr("-2.5")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Literal).Val.F != -2.5 {
		t.Fatalf("folded float = %v", e)
	}
}

func TestParseDDL(t *testing.T) {
	stmt := reparse(t, "CREATE TABLE nation (n_nationkey BIGINT NOT NULL, n_name VARCHAR(25), n_comment VARCHAR)")
	ct := stmt.(*CreateTable)
	if ct.Name != "nation" || len(ct.Columns) != 3 || !ct.Columns[0].NotNull || ct.Columns[1].NotNull {
		t.Fatalf("create table = %+v", ct)
	}
	if ct.Columns[1].Type != col.STRING {
		t.Fatalf("varchar type = %v", ct.Columns[1].Type)
	}
	reparse(t, "DROP TABLE IF EXISTS nation")
	reparse(t, "CREATE DATABASE tpch")
	reparse(t, "DROP DATABASE tpch")
	reparse(t, "SHOW DATABASES")
	reparse(t, "SHOW TABLES")
	reparse(t, "DESCRIBE nation")
	reparse(t, "USE tpch")
}

func TestParseInsert(t *testing.T) {
	stmt := reparse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	ins := stmt.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if !ins.Rows[1][1].(*Literal).Val.Null {
		t.Fatalf("NULL literal lost")
	}
}

func TestParseExplain(t *testing.T) {
	stmt := reparse(t, "EXPLAIN SELECT * FROM t")
	ex := stmt.(*Explain)
	if _, ok := ex.Stmt.(*Select); !ok {
		t.Fatalf("explain wraps %T", ex.Stmt)
	}
}

func TestParseSelectStar(t *testing.T) {
	stmt := reparse(t, "SELECT t.*, a FROM t")
	sel := stmt.(*Select)
	if !sel.Items[0].Star || sel.Items[0].Table != "t" {
		t.Fatalf("t.* = %+v", sel.Items[0])
	}
}

func TestParseDistinct(t *testing.T) {
	stmt := reparse(t, "SELECT DISTINCT a FROM t")
	if !stmt.(*Select).Distinct {
		t.Fatalf("distinct lost")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t LIMIT x",
		"FROBNICATE",
		"SELECT * FROM t JOIN u", // missing ON
		"SELECT a b c FROM t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BLOB)",
		"INSERT INTO t",
		"SELECT * FROM t; SELECT * FROM u", // two statements
		"SELECT 'unterminated FROM t",
		"SELECT /* unterminated",
		"SELECT CASE END FROM t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", q)
		}
	}
}

func TestLexComments(t *testing.T) {
	stmt, err := Parse("SELECT a -- trailing comment\n FROM t /* block\ncomment */ WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*Select).Where == nil {
		t.Fatalf("comment swallowed clause")
	}
}

func TestLexQuotedIdentifiers(t *testing.T) {
	stmt, err := Parse(`SELECT "Weird Name" FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	ref := stmt.(*Select).Items[0].Expr.(*ColumnRef)
	if ref.Name != "Weird Name" {
		t.Fatalf("quoted ident = %q", ref.Name)
	}
}

func TestLexStringEscapes(t *testing.T) {
	e, err := ParseExpr("'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Literal).Val.S != "it's" {
		t.Fatalf("escape = %q", e.(*Literal).Val.S)
	}
}

func TestCaseInsensitiveKeywordsAndIdents(t *testing.T) {
	stmt, err := Parse("select A, b from T where A = 1")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if sel.Items[0].Expr.(*ColumnRef).Name != "a" || sel.From[0].Table.Name != "t" {
		t.Fatalf("identifiers not lower-cased: %+v", sel)
	}
}

func TestParseTPCHStyleQueries(t *testing.T) {
	queries := []string{
		// Q1-flavoured
		`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
			SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
			AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order
		 FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
		 GROUP BY l_returnflag, l_linestatus
		 ORDER BY l_returnflag, l_linestatus`,
		// Q3-flavoured
		`SELECT l.l_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue,
			o.o_orderdate
		 FROM customer c, orders o, lineitem l
		 WHERE c.c_mktsegment = 'BUILDING' AND c.c_custkey = o.o_custkey
			AND l.l_orderkey = o.o_orderkey AND o.o_orderdate < DATE '1995-03-15'
		 GROUP BY l.l_orderkey, o.o_orderdate
		 ORDER BY revenue DESC LIMIT 10`,
		// Q6-flavoured
		`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
		 WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
			AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`,
	}
	for _, q := range queries {
		reparse(t, q)
	}
}

// TestParseNestingBound: every way an expression nests — a unary sign,
// NOT, parentheses, a function argument, a CAST operand — parses up to
// MaxDepth levels and fails one level deeper. The bound is stated up
// front: a 4,000-deep chain fails at its (MaxDepth+1)th opener, so the
// parser reads no more of it than that and the error points there.
func TestParseNestingBound(t *testing.T) {
	shapes := []struct {
		prefix, open, leaf, close, suffix string
	}{
		{"SELECT ", "- ", "x", "", " FROM t"},
		{"SELECT x FROM t WHERE ", "NOT ", "x", "", ""},
		{"SELECT ", "(", "x", ")", " FROM t"},
		{"SELECT ", "ABS(", "x", ")", " FROM t"},
		{"SELECT ", "CAST(", "x", " AS BIGINT)", " FROM t"},
		{"SELECT x FROM t WHERE ", "x IN (1, ", "x", ")", ""},
	}
	for _, s := range shapes {
		stmt := func(depth int) string {
			return s.prefix + strings.Repeat(s.open, depth) + s.leaf + strings.Repeat(s.close, depth) + s.suffix
		}
		if _, err := Parse(stmt(MaxDepth)); err != nil {
			t.Fatalf("%d levels of %q: %v", MaxDepth, s.open, err)
		}
		for _, depth := range []int{MaxDepth + 1, 4000} {
			q := stmt(depth)
			_, err := Parse(q)
			perr, ok := err.(*Error)
			if !ok || !strings.Contains(perr.Msg, "nests deeper than 256") {
				t.Fatalf("%d levels of %q: error %v", depth, s.open, err)
			}
			at := len(s.prefix) + MaxDepth*len(s.open) // the first opener too deep
			if perr.Pos < at || perr.Pos > at+len(s.open) {
				t.Fatalf("%d levels of %q: error at offset %d, want the opener at %d", depth, s.open, perr.Pos, at)
			}
		}
	}
}
