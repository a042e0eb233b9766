package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
)

// findAggOverScan walks a plan for the fused-path shape: an AggNode whose
// child is a ScanNode.
func findAggOverScan(n plan.Node) (*plan.AggNode, *plan.ScanNode) {
	if agg, ok := n.(*plan.AggNode); ok {
		if scan, ok := agg.Child.(*plan.ScanNode); ok {
			return agg, scan
		}
	}
	for _, c := range n.Children() {
		if agg, scan := findAggOverScan(c); agg != nil {
			return agg, scan
		}
	}
	return nil, nil
}

func planFor(t *testing.T, e *Engine, q string) plan.Node {
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

// fusedAggQueries pair every fusable aggregate kind (COUNT(*) incl. NULLs,
// COUNT, SUM/AVG over ints and floats, MIN/MAX over ints, floats and
// strings) with filterless, dictionary-eligible, NULL-dominated, partial and
// zero-match predicates.
var fusedAggQueries = []string{
	"SELECT COUNT(*) FROM nh",
	"SELECT COUNT(*), COUNT(n_a), SUM(n_a), AVG(n_b), MIN(n_s), MAX(n_s) FROM nh",
	"SELECT SUM(n_key), MIN(n_b), MAX(n_b), AVG(n_a) FROM nh WHERE n_s LIKE 'wo%'",
	"SELECT COUNT(*), MIN(n_key), MAX(n_key), COUNT(n_b) FROM nh WHERE n_s LIKE '%or%'",
	"SELECT COUNT(n_s), MIN(n_s), MAX(n_s), SUM(n_a) FROM nh WHERE n_s IN ('word-1', 'wo-4', '')",
	"SELECT COUNT(*), SUM(n_key), AVG(n_b) FROM nh WHERE n_a IS NULL",
	"SELECT COUNT(*), SUM(n_a), MIN(n_s), MAX(n_b) FROM nh WHERE n_key < 0",
	"SELECT AVG(n_a), AVG(n_b), MIN(n_a), MAX(n_a) FROM nh WHERE n_a % 3 = 1 AND n_s LIKE '%-3'",
}

// TestFusedAggEquivalence: for every fusable aggregate shape, the fused
// kernels must be bit-identical — rows, billed bytes, scan stats — to both
// the unfused vectorized path and the row-at-a-time interpreter, across
// synchronous, pipelined and parallel execution at widths 1/2/8.
func TestFusedAggEquivalence(t *testing.T) {
	e := newNullHeavyEngine(t)
	for _, q := range fusedAggQueries {
		e.interp = true
		interp := runVecEquivQuery(t, e, q)
		e.interp = false

		e.fusedOff, e.dictOff = true, true
		unfused := runVecEquivQuery(t, e, q)
		e.fusedOff, e.dictOff = false, false
		fused := runVecEquivQuery(t, e, q)

		base := interp[0]
		rest := append(append(interp[1:], unfused...), fused...)
		for i, res := range rest {
			label := fmt.Sprintf("%s variant %d", q, i)
			gb, wb := rowsAsStrings(res), rowsAsStrings(base)
			if len(gb) != len(wb) {
				t.Fatalf("%s: %d rows vs %d", label, len(gb), len(wb))
			}
			for j := range gb {
				if gb[j] != wb[j] {
					t.Fatalf("%s: row %d %q vs %q", label, j, gb[j], wb[j])
				}
			}
			if res.Stats.BytesScanned != base.Stats.BytesScanned {
				t.Fatalf("%s: billed bytes %d vs %d", label, res.Stats.BytesScanned, base.Stats.BytesScanned)
			}
			if res.Stats.RowsScanned != base.Stats.RowsScanned ||
				res.Stats.RowsFiltered != base.Stats.RowsFiltered ||
				res.Stats.ColumnChunksSkipped != base.Stats.ColumnChunksSkipped ||
				res.Stats.RowGroupsPruned != base.Stats.RowGroupsPruned {
				t.Fatalf("%s: scan stats diverge: %+v vs %+v", label, res.Stats, base.Stats)
			}
		}
	}
}

// TestFusedAggEmptyTable: the fused path must reproduce HashAgg's
// empty-global-input row (COUNT = 0, everything else NULL).
func TestFusedAggEmptyTable(t *testing.T) {
	e := newNullHeavyEngine(t)
	ctx := context.Background()
	if _, err := e.Execute(ctx, "db", "CREATE TABLE et (e_a BIGINT, e_b DOUBLE, e_s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*), COUNT(e_a), SUM(e_a), AVG(e_b), MIN(e_s), MAX(e_b) FROM et"
	e.interp = true
	base, err := e.Execute(ctx, "db", q)
	if err != nil {
		t.Fatal(err)
	}
	e.interp = false
	got, err := e.Execute(ctx, "db", q)
	if err != nil {
		t.Fatal(err)
	}
	gb, wb := rowsAsStrings(got), rowsAsStrings(base)
	if len(gb) != 1 || len(wb) != 1 || gb[0] != wb[0] {
		t.Fatalf("empty-table aggregate: fused %q vs interpreted %q", gb, wb)
	}
}

// TestFusedAggDistributed runs a fused-shape aggregate through the CF wire
// path (worker requests, store shuffle, partial aggregation with AVG
// reconstruction) and pins serial-identical rows and billing.
func TestFusedAggDistributed(t *testing.T) {
	e := newNullHeavyEngine(t)
	for _, q := range []string{
		"SELECT COUNT(*), SUM(n_key), SUM(n_a), AVG(n_b), MIN(n_s), MAX(n_s) FROM nh WHERE n_s LIKE '%or%'",
		"SELECT COUNT(n_a), MIN(n_b), MAX(n_key), AVG(n_a) FROM nh",
	} {
		serial := serialResult(t, e, q)
		for _, width := range []int{1, 2, 8} {
			dist := runDist(t, e, q, width, &LocalInvoker{Engine: e})
			expectDistMatchesSerial(t, fmt.Sprintf("%s @%d", q, width), serial, dist)
		}
	}
}

// TestFusableAggDecides pins which plan shapes compile to fused kernels and
// which must keep the interpreter's HashAggOp.
func TestFusableAggDecides(t *testing.T) {
	e := newNullHeavyEngine(t)
	cases := []struct {
		q    string
		want bool
	}{
		{"SELECT COUNT(*) FROM nh", true},
		{"SELECT SUM(n_a), AVG(n_b), MIN(n_s), MAX(n_key) FROM nh WHERE n_key > 5", true},
		{"SELECT n_flag, COUNT(*) FROM nh GROUP BY n_flag", false}, // grouped
		{"SELECT COUNT(DISTINCT n_a) FROM nh", false},              // distinct
		{"SELECT SUM(n_a + 1) FROM nh", false},                     // expression arg
		{"SELECT MIN(n_flag) FROM nh", false},                      // BOOL extremum
	}
	for _, c := range cases {
		agg, scan := findAggOverScan(planFor(t, e, c.q))
		if agg == nil {
			if c.want {
				t.Fatalf("%s: no agg-over-scan shape in plan", c.q)
			}
			continue
		}
		if got := fusableAgg(agg, scan); got != c.want {
			t.Fatalf("%s: fusableAgg = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestFusedAggHookGating: the BuildEnv hook must produce an operator for a
// fusable plan, and decline under the interpreter and the -fused-off knob —
// the forced-fallback path every fused node kind must keep working through.
func TestFusedAggHookGating(t *testing.T) {
	e := newNullHeavyEngine(t)
	agg, scan := findAggOverScan(planFor(t, e, "SELECT COUNT(*), SUM(n_a) FROM nh WHERE n_s LIKE 'wo%'"))
	if agg == nil {
		t.Fatal("no agg-over-scan shape")
	}
	var stats Stats
	ctx := context.Background()
	if _, ok := e.fusedAggScan(ctx, &stats, nil, nil)(agg, scan); !ok {
		t.Fatal("hook declined a fusable aggregate")
	}
	e.fusedOff = true
	if _, ok := e.fusedAggScan(ctx, &stats, nil, nil)(agg, scan); ok {
		t.Fatal("hook fused despite fusedOff")
	}
	e.fusedOff = false
	e.interp = true
	if _, ok := e.fusedAggScan(ctx, &stats, nil, nil)(agg, scan); ok {
		t.Fatal("hook fused despite interpreted mode")
	}
}

// TestNullHeavyFixtureHasDictChunks guards the fixture the dictionary tests
// lean on: n_s must actually be DICT-encoded on disk, so the equivalence
// batteries exercise code-level predicate evaluation rather than silently
// falling back to full decode.
func TestNullHeavyFixtureHasDictChunks(t *testing.T) {
	e := newNullHeavyEngine(t)
	tab := mustTable(t, e, "nh")
	dict := 0
	for _, fm := range tab.Files {
		data, err := e.Store().Get(fm.Key)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pixfile.OpenBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < f.NumRowGroups(); g++ {
			if f.RowGroup(g).Chunks[3].Encoding == pixfile.EncDict { // n_s
				dict++
			}
		}
	}
	if dict == 0 {
		t.Fatal("fixture has no DICT-encoded n_s chunks")
	}
}
