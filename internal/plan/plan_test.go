package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/sql"
)

// testCatalog builds a catalog with row counts that exercise join ordering.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if err := cat.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, rows int64, cols ...catalog.Column) {
		if err := cat.CreateTable("db", &catalog.Table{Name: name, Columns: cols}); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddFiles("db", name, catalog.FileMeta{Key: name + "/0", Size: rows * 100, Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	mk("big", 1_000_000,
		catalog.Column{Name: "b_id", Type: col.INT64},
		catalog.Column{Name: "b_small", Type: col.INT64},
		catalog.Column{Name: "b_mid", Type: col.INT64},
		catalog.Column{Name: "b_val", Type: col.FLOAT64},
		catalog.Column{Name: "b_date", Type: col.DATE},
	)
	mk("mid", 10_000,
		catalog.Column{Name: "m_id", Type: col.INT64},
		catalog.Column{Name: "m_name", Type: col.STRING},
	)
	mk("small", 100,
		catalog.Column{Name: "s_id", Type: col.INT64},
		catalog.Column{Name: "s_name", Type: col.STRING},
	)
	return cat
}

func bindQuery(t *testing.T, q string) Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	node, err := NewBinder(testCatalog(t), "db").BindSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	return node
}

func TestGreedyJoinOrderProbesLarge(t *testing.T) {
	node := bindQuery(t, `SELECT s.s_name, COUNT(*) FROM big b, mid m, small s
		WHERE b.b_small = s.s_id AND b.b_mid = m.m_id GROUP BY s.s_name`)
	scans := Scans(node)
	if len(scans) != 3 {
		t.Fatalf("scans = %d", len(scans))
	}
	// Greedy order: largest first, so the fact table is the probe (left)
	// side of the left-deep chain and every hash build is dimension-sized.
	// The chain's deepest-left scan must be `big`.
	if scans[0].Table.Name != "big" {
		t.Fatalf("join order starts with %s, want big (explain:\n%s)", scans[0].Table.Name, Explain(node))
	}
	// Builds (right children) must be the small relations.
	var rec func(Node)
	rec = func(n Node) {
		if j, ok := n.(*JoinNode); ok {
			for _, s := range Scans(j.Right) {
				if s.Table.Name == "big" {
					t.Fatalf("big table on the build side:\n%s", Explain(node))
				}
			}
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(node)
}

func TestExplicitJoinKeepsUserOrder(t *testing.T) {
	node := bindQuery(t, `SELECT b.b_id FROM big b JOIN small s ON b.b_small = s.s_id`)
	scans := Scans(node)
	if scans[0].Table.Name != "big" {
		t.Fatalf("explicit join reordered: first scan %s", scans[0].Table.Name)
	}
}

func TestProjectionPushdownPrunesColumns(t *testing.T) {
	node := bindQuery(t, "SELECT b_id FROM big WHERE b_val > 1.5")
	scans := Scans(node)
	if len(scans) != 1 {
		t.Fatalf("scans = %d", len(scans))
	}
	// Only b_id and b_val should be read, not all 5 columns.
	if got := len(scans[0].Cols); got != 2 {
		t.Fatalf("scan cols = %d (%v), want 2", got, scans[0].Schema().Names())
	}
}

func TestFilterPushdownAndZoneMaps(t *testing.T) {
	node := bindQuery(t, "SELECT b_id FROM big WHERE b_val > 1.5 AND b_id = 42")
	scan := Scans(node)[0]
	if scan.Filter == nil {
		t.Fatalf("filter not pushed into scan")
	}
	if len(scan.ZonePreds) != 2 {
		t.Fatalf("zone preds = %d, want 2", len(scan.ZonePreds))
	}
	// No residual FilterNode above the scan.
	if strings.Contains(Explain(node), "\nFilter") {
		t.Fatalf("unexpected post filter:\n%s", Explain(node))
	}
}

func TestLeftJoinBlocksRightSidePushdown(t *testing.T) {
	node := bindQuery(t, `SELECT b.b_id FROM big b LEFT JOIN small s ON b.b_small = s.s_id
		WHERE s.s_name = 'x'`)
	for _, scan := range Scans(node) {
		if scan.Table.Name == "small" && scan.Filter != nil {
			t.Fatalf("filter pushed to nullable side of LEFT JOIN:\n%s", Explain(node))
		}
	}
	if !strings.Contains(Explain(node), "Filter") {
		t.Fatalf("WHERE on right side of left join vanished:\n%s", Explain(node))
	}
}

func TestWhereEquiJoinBecomesHashJoin(t *testing.T) {
	node := bindQuery(t, "SELECT b.b_id FROM big b, small s WHERE b.b_small = s.s_id")
	text := Explain(node)
	if !strings.Contains(text, "INNER Join on") {
		t.Fatalf("comma join not converted to hash join:\n%s", text)
	}
	if strings.Contains(text, "CROSS") {
		t.Fatalf("cross join left behind:\n%s", text)
	}
}

func TestCrossJoinWithoutPredicate(t *testing.T) {
	node := bindQuery(t, "SELECT b.b_id FROM big b, small s")
	if !strings.Contains(Explain(node), "CROSS Join") {
		t.Fatalf("expected cross join:\n%s", Explain(node))
	}
}

func TestAggSchemaAndHidden(t *testing.T) {
	node := bindQuery(t, `SELECT m_name, COUNT(*) AS cnt FROM mid GROUP BY m_name ORDER BY cnt DESC`)
	schema := node.Schema()
	if schema.Len() != 2 || schema.Fields[0].Name != "m_name" || schema.Fields[1].Name != "cnt" {
		t.Fatalf("schema = %v", schema)
	}
}

func TestHiddenSortKeyTrimmed(t *testing.T) {
	node := bindQuery(t, "SELECT m_name FROM mid ORDER BY m_id")
	schema := node.Schema()
	if schema.Len() != 1 || schema.Fields[0].Name != "m_name" {
		t.Fatalf("hidden sort key leaked: %v", schema.Names())
	}
	if !strings.Contains(Explain(node), "__sort0") {
		t.Fatalf("hidden key missing from inner projection:\n%s", Explain(node))
	}
}

// TestLimitBindsBoundedSort: ORDER BY under a LIMIT binds as Limit →
// [hidden-key trim Project] → TopN{N: LIMIT+OFFSET}, with no SortNode left;
// with no LIMIT, or a LIMIT+OFFSET past int64, the SortNode stays.
func TestLimitBindsBoundedSort(t *testing.T) {
	hasSort := func(n Node) bool {
		found := false
		var rec func(Node)
		rec = func(n Node) {
			if _, ok := n.(*SortNode); ok {
				found = true
			}
			for _, c := range n.Children() {
				rec(c)
			}
		}
		rec(n)
		return found
	}
	for _, tc := range []struct {
		q     string
		trim  bool
		n     int64
		bound bool
	}{
		{"SELECT b_id, b_val FROM big ORDER BY b_val DESC, b_id LIMIT 11", false, 11, true},
		{"SELECT m_name FROM mid ORDER BY m_id LIMIT 5", true, 5, true},
		{"SELECT b_id FROM big ORDER BY b_id LIMIT 4 OFFSET 6", false, 10, true},
		{"SELECT b_id FROM big ORDER BY b_id OFFSET 6", false, 0, false},
		{"SELECT b_id FROM big ORDER BY b_id LIMIT 9223372036854775807 OFFSET 2", false, 0, false},
	} {
		node := bindQuery(t, tc.q)
		lim, ok := node.(*LimitNode)
		if !ok {
			t.Fatalf("%s: root is %T, want *LimitNode", tc.q, node)
		}
		if !tc.bound {
			if !hasSort(node) {
				t.Fatalf("%s: SortNode dropped:\n%s", tc.q, Explain(node))
			}
			continue
		}
		child := lim.Child
		if p, ok := child.(*ProjectNode); ok == tc.trim {
			if ok {
				child = p.Child
			}
		} else {
			t.Fatalf("%s: trim projection = %v, want %v:\n%s", tc.q, ok, tc.trim, Explain(node))
		}
		topn, ok := child.(*TopNNode)
		if !ok || topn.N != tc.n {
			t.Fatalf("%s: want TopN %d under the limit:\n%s", tc.q, tc.n, Explain(node))
		}
		if hasSort(node) {
			t.Fatalf("%s: SortNode left beside the TopN:\n%s", tc.q, Explain(node))
		}
	}
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT nope FROM big",
		"SELECT b_id FROM missing",
		"SELECT s_id FROM big b, small s, small s", // duplicate binding
		"SELECT m_name FROM mid GROUP BY m_id",     // m_name not grouped
		"SELECT SUM(m_name) FROM mid",              // sum of string
		"SELECT COUNT(*) FROM mid HAVING m_name = 'x'",
		"SELECT m_id FROM mid WHERE SUM(m_id) > 1",
		"SELECT AVG(COUNT(*)) FROM mid",             // nested agg
		"SELECT m_id FROM mid WHERE m_id IN (m_id)", // non-literal IN
		"SELECT DISTINCT m_name FROM mid ORDER BY m_id",
		"SELECT b_id FROM big WHERE b_val LIKE 'x'", // LIKE on number
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := NewBinder(cat, "db").BindSelect(stmt.(*sql.Select)); err == nil {
			t.Errorf("bind %q unexpectedly succeeded", q)
		}
	}
}

func TestGroupByAlias(t *testing.T) {
	node := bindQuery(t, "SELECT m_name AS n, COUNT(*) FROM mid GROUP BY n")
	if node.Schema().Fields[0].Name != "n" {
		t.Fatalf("schema = %v", node.Schema().Names())
	}
}

func TestHavingOnUnprojectedAggregate(t *testing.T) {
	node := bindQuery(t, "SELECT m_name FROM mid GROUP BY m_name HAVING COUNT(*) > 5")
	text := Explain(node)
	if !strings.Contains(text, "COUNT(*)") || !strings.Contains(text, "Filter") {
		t.Fatalf("HAVING lost:\n%s", text)
	}
	if node.Schema().Len() != 1 {
		t.Fatalf("HAVING aggregate leaked into output: %v", node.Schema().Names())
	}
}

func TestZonePredFlippedLiteral(t *testing.T) {
	node := bindQuery(t, "SELECT b_id FROM big WHERE 100 < b_id")
	scan := Scans(node)[0]
	if len(scan.ZonePreds) != 1 {
		t.Fatalf("flipped literal not extracted: %+v", scan.ZonePreds)
	}
	// 100 < b_id means b_id > 100.
	if scan.ZonePreds[0].Val.I != 100 {
		t.Fatalf("zone pred = %+v", scan.ZonePreds[0])
	}
}

func TestExplainStable(t *testing.T) {
	a := Explain(bindQuery(t, "SELECT b_id FROM big WHERE b_val > 1 ORDER BY b_id LIMIT 3"))
	b := Explain(bindQuery(t, "SELECT b_id FROM big WHERE b_val > 1 ORDER BY b_id LIMIT 3"))
	if a != b {
		t.Fatalf("explain not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"Limit 3", "TopN 3", "Scan db.big"} {
		if !strings.Contains(a, want) {
			t.Fatalf("explain missing %s:\n%s", want, a)
		}
	}
}

// TestDeepestExpressionExplains: a statement nested sql.MaxDepth levels
// deep, the deepest the parser admits, binds and explains — as a
// projection and as a WHERE filter.
func TestDeepestExpressionExplains(t *testing.T) {
	for _, q := range []string{
		"SELECT " + strings.Repeat("- ", sql.MaxDepth) + "b_id FROM big",
		"SELECT b_id FROM big WHERE " + strings.Repeat("NOT ", sql.MaxDepth) + "b_id > 0",
	} {
		if text := Explain(bindQuery(t, q)); !strings.Contains(text, "b_id") {
			t.Fatalf("%.40s…: explain:\n%s", q, text)
		}
	}
}
