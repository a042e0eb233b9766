package engine

import (
	"encoding/json"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
)

// wireQueries exercises every node kind and bound-expression kind the wire
// format carries: filters with zone-pruning conjuncts, arithmetic, unary
// minus, IS [NOT] NULL, [NOT] IN lists, scalar functions, CASE, CAST,
// aggregation with DISTINCT and AVG, top-N with hidden sort keys and an
// offset, a scan under a plain sort, and joins (inner, LEFT with an ON
// residual, cross) under a partial aggregate and a top-N.
var wireQueries = []string{
	"SELECT f_key, f_val FROM fact",
	"SELECT f_key + 1, -f_val, f_val * 2.5 FROM fact WHERE f_val > 10 AND f_key < 500",
	"SELECT f_cat, COUNT(*), SUM(f_val), MIN(f_val), MAX(f_val), AVG(f_val) FROM fact WHERE f_dim IN (1, 2, 3) GROUP BY f_cat",
	"SELECT COUNT(DISTINCT f_cat) FROM fact WHERE f_cat NOT IN ('x')",
	"SELECT CASE WHEN f_val > 500 THEN 'hi' WHEN f_val > 100 THEN 'mid' ELSE 'lo' END, UPPER(f_cat) FROM fact WHERE f_cat IS NOT NULL",
	"SELECT CAST(f_val AS BIGINT), LENGTH(f_cat) FROM fact WHERE f_key IS NULL",
	"SELECT f_key FROM fact ORDER BY f_val DESC, f_key LIMIT 5 OFFSET 2",
	"SELECT f_key, f_val FROM fact ORDER BY f_cat",
	"SELECT f_cat, COUNT(*) FROM fact GROUP BY f_cat HAVING COUNT(*) > 1",
	"SELECT d_name, COUNT(*) FROM fact LEFT JOIN dim ON f_dim = d_key AND d_name <> 'dim-03' WHERE f_val > 10 GROUP BY d_name",
	"SELECT f_key, d_name FROM fact, dim WHERE f_key < d_key ORDER BY f_key, d_name LIMIT 4",
}

// TestWireRoundTrip: encode → JSON → decode must preserve the plan
// (identical EXPLAIN), and re-encoding the decoded plan must reproduce the
// identical wire JSON — a fixpoint, so no field silently drops out on
// either half of the trip. It round-trips every query's CF worker plan and
// every whole plan that holds no sort or limit, which no worker plan does,
// and checks that together they carry every node kind and that only build
// sides carry files.
func TestWireRoundTrip(t *testing.T) {
	e := newPartitionedEngine(t, 2, 100)
	kinds := map[string]bool{}
	for _, q := range wireQueries {
		node := planNode(t, e, q)
		split, err := e.SplitForCF(node, "wire", 2)
		if err != nil {
			t.Fatalf("split %q: %v", q, err)
		}
		roundTrip(t, q+" (worker plan)", split.workerPlan, kinds)
		if !holdsSortOrLimit(node) {
			roundTrip(t, q, node, kinds)
		}
	}
	for _, k := range []string{"scan", "filter", "project", "agg", "topn", "join"} {
		if !kinds[k] {
			t.Errorf("no round-tripped plan holds a %q node", k)
		}
	}
}

// roundTrip checks one plan's trip through the wire and marks its node
// kinds in kinds.
func roundTrip(t *testing.T, label string, node plan.Node, kinds map[string]bool) {
	t.Helper()
	w, err := encodeNode(node, false)
	if err != nil {
		t.Fatalf("encode %s: %v", label, err)
	}
	var mark func(n *wireNode, build bool)
	mark = func(n *wireNode, build bool) {
		if n == nil {
			return
		}
		kinds[n.Kind] = true
		if n.Kind == "scan" && (len(n.Files) > 0) != build {
			t.Errorf("%s: scan %s carries %d files, build side %v", label, n.Binding, len(n.Files), build)
		}
		mark(n.Child, build)
		mark(n.Left, build)
		mark(n.Right, true)
	}
	mark(w, false)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal %s: %v", label, err)
	}
	var w2 wireNode
	if err := json.Unmarshal(data, &w2); err != nil {
		t.Fatalf("unmarshal %s: %v", label, err)
	}
	decoded, err := decodeNode(&w2)
	if err != nil {
		t.Fatalf("decode %s: %v", label, err)
	}
	if got, want := plan.Explain(decoded), plan.Explain(node); got != want {
		t.Fatalf("%s explain drifted through the wire:\nwant:\n%s\ngot:\n%s", label, want, got)
	}
	w3, err := encodeNode(decoded, false)
	if err != nil {
		t.Fatalf("re-encode %s: %v", label, err)
	}
	data2, err := json.Marshal(w3)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("%s wire JSON is not a fixpoint:\nfirst:  %s\nsecond: %s", label, data, data2)
	}
}

// holdsSortOrLimit reports whether plan n holds a sort or a limit.
func holdsSortOrLimit(n plan.Node) bool {
	switch n.(type) {
	case *plan.SortNode, *plan.LimitNode:
		return true
	}
	for _, c := range n.Children() {
		if holdsSortOrLimit(c) {
			return true
		}
	}
	return false
}

// TestWireRoundTripPreservesScanDetails pins the scan fields EXPLAIN may
// summarize: projected ordinals, zone-pruning conjuncts, and the rebuilt
// self-contained table schema.
func TestWireRoundTripPreservesScanDetails(t *testing.T) {
	e := newPartitionedEngine(t, 2, 100)
	stmt, _ := sql.Parse("SELECT f_val FROM fact WHERE f_key >= 100 AND f_key < 110 AND f_val > 3")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	orig := plan.Scans(node)[0]
	if len(orig.ZonePreds) == 0 {
		t.Fatal("fixture query planned without zone predicates; test is vacuous")
	}

	w, err := encodeNode(node, false)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeNode(w)
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Scans(decoded)[0]
	if len(got.Cols) != len(orig.Cols) {
		t.Fatalf("Cols: got %v want %v", got.Cols, orig.Cols)
	}
	for i := range orig.Cols {
		if got.Cols[i] != orig.Cols[i] {
			t.Fatalf("Cols: got %v want %v", got.Cols, orig.Cols)
		}
	}
	if len(got.ZonePreds) != len(orig.ZonePreds) {
		t.Fatalf("ZonePreds: got %d want %d", len(got.ZonePreds), len(orig.ZonePreds))
	}
	for i, p := range orig.ZonePreds {
		g := got.ZonePreds[i]
		if g.Col != p.Col || g.Op != p.Op || !g.Val.Equal(p.Val) {
			t.Fatalf("ZonePreds[%d]: got %+v want %+v", i, g, p)
		}
	}
	if got.Table == nil || len(got.Table.Columns) != len(orig.Table.Columns) {
		t.Fatalf("decoded scan table: %+v", got.Table)
	}
	for i, c := range orig.Table.Columns {
		if got.Table.Columns[i] != c {
			t.Fatalf("table column %d: got %+v want %+v", i, got.Table.Columns[i], c)
		}
	}
	if !got.Schema().Equal(orig.Schema()) {
		t.Fatalf("schema: got %v want %v", got.Schema(), orig.Schema())
	}
}

// TestWireDecodeRejectsMalformed: hostile or corrupted requests must fail
// decode validation, not crash the worker process.
func TestWireDecodeRejectsMalformed(t *testing.T) {
	for name, raw := range map[string]string{
		"unknown kind":       `{"kind":"exchange"}`,
		"scan ordinal range": `{"kind":"scan","table":"t","cols":[3],"columns":[{"name":"a","type":1}]}`,
		"project arity":      `{"kind":"project","names":["a","b"],"exprs":[{"kind":"col","idx":0,"ty":1}],"child":{"kind":"scan","table":"t","cols":[0],"columns":[{"name":"a","type":1}]}}`,
		"missing child":      `{"kind":"topn","n":1}`,
		"sort kind":          `{"kind":"sort","child":{"kind":"scan","table":"t","cols":[0],"columns":[{"name":"a","type":1}]}}`,
		"unknown expr":       `{"kind":"filter","cond":{"kind":"window"},"child":{"kind":"scan","table":"t","cols":[0],"columns":[{"name":"a","type":1}]}}`,
		"join no right":      `{"kind":"join","left":{"kind":"scan","table":"t","cols":[0],"columns":[{"name":"a","type":1}]},"left_keys":[{"kind":"col","ty":1}]}`,
		"join key arity":     `{"kind":"join","left":{"kind":"scan","table":"t","cols":[0],"columns":[{"name":"a","type":1}]},"right":{"kind":"scan","table":"u","cols":[0],"columns":[{"name":"b","type":1}]},"left_keys":[{"kind":"col","ty":1}]}`,
	} {
		var w wireNode
		if err := json.Unmarshal([]byte(raw), &w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := decodeNode(&w); err == nil {
			t.Fatalf("%s: decoded successfully", name)
		}
	}
}
