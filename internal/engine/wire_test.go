package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
)

// wireQueries exercises every node kind and bound-expression kind a worker
// fragment carries: filters with zone-pruning conjuncts, arithmetic, unary
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

// TestWireRoundTrip: a fragment decoded from its bytes must be the plan
// that was encoded (identical EXPLAIN; for whole plans, reflect.DeepEqual),
// and re-encoding it must give the same bytes — a fixed point, so no field
// silently drops out on either half of the trip. It round-trips every
// query's CF worker fragment, whose probe carries no files and whose build
// scans carry their tables', and every whole plan that holds no sort or
// limit, which no worker runs; together they must carry every worker kind.
func TestWireRoundTrip(t *testing.T) {
	e := newPartitionedEngine(t, 2, 100)
	kinds := map[string]bool{}
	for _, q := range wireQueries {
		node := planNode(t, e, q)
		split, err := e.SplitForCF(node, "wire", 2)
		if err != nil {
			t.Fatalf("split %q: %v", q, err)
		}
		frag := roundTrip(t, q+" (worker plan)", split.fragment, split.workerPlan, kinds)
		for i, s := range plan.Scans(frag) {
			if (len(s.Table.Files) > 0) != (i > 0) {
				t.Errorf("%s: scan %s carries %d files; only build sides carry theirs", q, s.Binding, len(s.Table.Files))
			} else if i > 0 && !reflect.DeepEqual(s.Table.Files, e.mustTable(t, s.Table.Name).Files) {
				t.Errorf("%s: build scan %s carries files %v", q, s.Binding, s.Table.Files)
			}
		}
		if holdsSortOrLimit(node) {
			continue
		}
		data, err := plan.EncodeFragment(node)
		if err != nil {
			t.Fatalf("encode %q: %v", q, err)
		}
		if whole := roundTrip(t, q, data, node, kinds); !reflect.DeepEqual(whole, node) {
			t.Errorf("%s: decoded plan differs from the encoded one", q)
		}
	}
	for _, k := range []string{"*plan.ScanNode", "*plan.FilterNode", "*plan.ProjectNode", "*plan.AggNode", "*plan.TopNNode", "*plan.JoinNode"} {
		if !kinds[k] {
			t.Errorf("no round-tripped plan holds a %s", k)
		}
	}
}

// roundTrip decodes one fragment, checks it against the plan it encodes
// and for a fixed point, marks its node kinds in kinds, and returns it.
func roundTrip(t *testing.T, label string, data []byte, want plan.Node, kinds map[string]bool) plan.Node {
	t.Helper()
	decoded, err := plan.DecodeFragment(data)
	if err != nil {
		t.Fatalf("decode %s: %v", label, err)
	}
	if got, want := plan.Explain(decoded), plan.Explain(want); got != want {
		t.Fatalf("%s explain drifted through the wire:\nwant:\n%s\ngot:\n%s", label, want, got)
	}
	again, err := plan.EncodeFragment(decoded)
	if err != nil {
		t.Fatalf("re-encode %s: %v", label, err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("%s: fragment bytes are not a fixed point:\nfirst:  %x\nsecond: %x", label, data, again)
	}
	var mark func(plan.Node)
	mark = func(n plan.Node) {
		kinds[fmt.Sprintf("%T", n)] = true
		for _, c := range n.Children() {
			mark(c)
		}
	}
	mark(decoded)
	return decoded
}

// mustTable returns a table of database db.
func (e *Engine) mustTable(t *testing.T, name string) *catalog.Table {
	t.Helper()
	tbl, err := e.Catalog().GetTable("db", name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
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
// summarize: projected ordinals, zone-pruning conjuncts and the rebuilt
// self-contained table schema. The probe arrives without files and the
// join's build scan with its table's, so a task reads its partition
// from WorkerRequest.Files alone.
func TestWireRoundTripPreservesScanDetails(t *testing.T) {
	e := newPartitionedEngine(t, 2, 100)
	stmt, _ := sql.Parse("SELECT d_name, SUM(f_val) FROM fact, dim WHERE f_dim = d_key AND f_key >= 100 AND f_key < 110 AND f_val > 3 GROUP BY d_name")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	split, err := e.SplitForCF(node, "wire", 2)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := plan.DecodeFragment(split.fragment)
	if err != nil {
		t.Fatal(err)
	}
	origScans, gotScans := plan.Scans(split.workerPlan), plan.Scans(decoded)
	if len(origScans) != 2 || len(gotScans) != 2 {
		t.Fatalf("fixture query's worker plan has %d scans, decoded %d; want a probe and a build", len(origScans), len(gotScans))
	}
	if len(origScans[0].ZonePreds) == 0 {
		t.Fatal("fixture query planned without zone predicates; test is vacuous")
	}
	for i, orig := range origScans {
		got := gotScans[i]
		if !reflect.DeepEqual(got.Cols, orig.Cols) {
			t.Fatalf("scan %d Cols: got %v want %v", i, got.Cols, orig.Cols)
		}
		if len(got.ZonePreds) != len(orig.ZonePreds) {
			t.Fatalf("scan %d ZonePreds: got %d want %d", i, len(got.ZonePreds), len(orig.ZonePreds))
		}
		for j, p := range orig.ZonePreds {
			g := got.ZonePreds[j]
			if g.Col != p.Col || g.Op != p.Op || !g.Val.Equal(p.Val) {
				t.Fatalf("scan %d ZonePreds[%d]: got %+v want %+v", i, j, g, p)
			}
		}
		if !reflect.DeepEqual(got.Table.Columns, orig.Table.Columns) {
			t.Fatalf("scan %d table columns: got %+v want %+v", i, got.Table.Columns, orig.Table.Columns)
		}
		if !got.Schema().Equal(orig.Schema()) {
			t.Fatalf("scan %d schema: got %v want %v", i, got.Schema(), orig.Schema())
		}
	}
	if len(gotScans[0].Table.Files) != 0 {
		t.Fatalf("probe scan carries %d files", len(gotScans[0].Table.Files))
	}
	if len(origScans[0].Table.Files) == 0 {
		t.Fatal("encoding the fragment cleared the split's own probe files")
	}
	if !reflect.DeepEqual(gotScans[1].Table.Files, origScans[1].Table.Files) || len(gotScans[1].Table.Files) == 0 {
		t.Fatalf("build scan files: got %v want %v", gotScans[1].Table.Files, origScans[1].Table.Files)
	}
}

// malformedFragments are fragment payloads a worker must refuse, one per
// rejection case of plan.DecodeFragment: bytes that are no fragment, a type
// no one registered, a registered type of the wrong interface, kinds no
// worker runs, a scan ordinal out of range, counts that do not match,
// missing parts, nesting past the depth bound, and a payload over the
// size cap.
func malformedFragments(tb testing.TB) map[string][]byte {
	tb.Helper()
	// enc encodes n as plan.EncodeFragment does but without its check:
	// gob matches the envelope by its field's name.
	enc := func(n plan.Node) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(struct{ Root plan.Node }{n}); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	rename := func(b []byte, from, to string) []byte {
		if !bytes.Contains(b, []byte(from)) {
			tb.Fatalf("encoded fragment holds no %q", from)
		}
		return bytes.ReplaceAll(b, []byte(from), []byte(to))
	}
	scan := func() *plan.ScanNode {
		return &plan.ScanNode{Table: &catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "a", Type: col.INT64}}}, Binding: "t", Cols: []int{0}}
	}
	key := func() plan.BoundExpr { return &plan.BCol{Name: "a", Ty: col.INT64} }
	cond := &plan.FilterNode{Child: scan(), Cond: &plan.BBinary{Op: "=", L: key(), R: &plan.BLit{Val: col.Int(1)}, Ty: col.BOOL}}
	badOrdinal := scan()
	badOrdinal.Cols = []int{3}
	var deep plan.BoundExpr = key()
	for range 300 {
		deep = &plan.BUnary{Op: "-", X: deep, Ty: col.INT64}
	}
	badZone := scan()
	badZone.ZonePreds = []pixfile.ColPredicate{{Col: 5, Op: pixfile.CmpEQ, Val: col.Int(1)}}
	return map[string][]byte{
		"not a fragment":     []byte("not gob"),
		"empty":              nil,
		"unknown node":       rename(enc(cond), "filter", "window"),
		"unknown expr":       rename(enc(cond), "binary", "window"),
		"expr as node":       rename(enc(cond), "scan", "case"),
		"sort kind":          enc(&plan.SortNode{Child: scan()}),
		"limit kind":         enc(&plan.LimitNode{Child: scan(), Limit: 1}),
		"scan no table":      enc(&plan.ScanNode{Binding: "t"}),
		"scan ordinal range": enc(badOrdinal),
		"zone ordinal range": enc(badZone),
		"project arity":      enc(&plan.ProjectNode{Child: scan(), Exprs: []plan.BoundExpr{key()}, Names: []string{"a", "b"}}),
		"agg arity":          enc(&plan.AggNode{Child: scan(), GroupBy: []plan.BoundExpr{key()}}),
		"missing root":       enc(nil),
		"missing child":      enc(&plan.TopNNode{N: 1}),
		"missing cond":       enc(&plan.FilterNode{Child: scan()}),
		"missing operand":    enc(&plan.FilterNode{Child: scan(), Cond: &plan.BUnary{Op: "NOT", Ty: col.BOOL}}),
		"missing case arm":   enc(&plan.ProjectNode{Child: scan(), Exprs: []plan.BoundExpr{&plan.BCase{Whens: []plan.BWhen{{Cond: key()}}}}, Names: []string{"c"}}),
		"join no right":      enc(&plan.JoinNode{Left: scan(), LeftKeys: []plan.BoundExpr{key()}, RightKeys: []plan.BoundExpr{key()}}),
		"join key arity":     enc(&plan.JoinNode{Left: scan(), Right: scan(), LeftKeys: []plan.BoundExpr{key()}}),
		"join key missing":   enc(&plan.JoinNode{Left: scan(), Right: scan(), LeftKeys: []plan.BoundExpr{key()}, RightKeys: []plan.BoundExpr{nil}}),
		"too deep":           enc(&plan.ProjectNode{Child: scan(), Exprs: []plan.BoundExpr{deep}, Names: []string{"d"}}),
		"over the cap":       append(enc(scan()), make([]byte, plan.MaxFragmentBytes)...),
	}
}

// TestWireDecodeRejectsMalformed: hostile or corrupted fragments must fail
// decoding with an error, not crash the worker process.
func TestWireDecodeRejectsMalformed(t *testing.T) {
	for name, data := range malformedFragments(t) {
		if n, _, err := decodeWorkerPlan(data); err == nil {
			t.Errorf("%s: decoded to\n%s", name, plan.Explain(n))
		}
	}
}

// TestFloatLiteralBitsAcrossTopologies: a -0.0 literal in a worker
// fragment — in an aggregate's argument, an IN list and a zone-pruning
// predicate — gives results with the same float bits serially, at width 2
// and on CF over both invokers. Value.Equal holds -0 equal to +0, so the
// other equivalence suites cannot see a codec that loses the sign.
func TestFloatLiteralBitsAcrossTopologies(t *testing.T) {
	e, dir := newDiskEngine(t, 4, 200)
	proc := newProcessInvoker(dir)
	defer proc.Close()
	for _, q := range []string{
		"SELECT f_cat, MIN(f_val * -0.0), MAX(f_val * -0.0) FROM fact GROUP BY f_cat ORDER BY f_cat",
		"SELECT f_cat, MIN(f_val * -0.0) FROM fact WHERE f_val IN (-0.0, 3, 7) GROUP BY f_cat ORDER BY f_cat",
		"SELECT MIN(f_val * -0.0), COUNT(*) FROM fact WHERE f_val <= -0.0",
	} {
		serial := serialResult(t, e, q)
		if !slices.Contains(slices.Concat(cellBits(serial)...), "-0") {
			t.Fatalf("%s: serial result holds no -0: %v", q, serial.Rows)
		}
		_, par := runBoth(t, e, q, 2)
		for name, got := range map[string]*Result{
			"width 2": par,
			"local":   runDist(t, e, q, 2, &LocalInvoker{Engine: e}),
			"process": runDist(t, e, q, 2, proc),
		} {
			if want, have := cellBits(serial), cellBits(got); !reflect.DeepEqual(want, have) {
				t.Errorf("%s %s: %v, serial %v", q, name, have, want)
			}
		}
	}
}

// cellBits renders a result's rows cell by cell, a non-NULL float as its
// math.Float64bits (-0 as "-0"), so ±0 and NaN payloads compare exactly.
func cellBits(r *Result) [][]string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		for _, v := range row {
			s := v.String()
			if v.Type == col.FLOAT64 && !v.Null {
				if s = fmt.Sprintf("%#x", math.Float64bits(v.F)); v.F == 0 && math.Signbit(v.F) {
					s = "-0"
				}
			}
			out[i] = append(out[i], s)
		}
	}
	return out
}
