package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/pixfile"
)

// aggQueries pair every aggregate kind (COUNT(*) incl. NULLs, COUNT,
// SUM/AVG over ints and floats, MIN/MAX over ints, floats, strings and
// booleans, DISTINCT, expression arguments) with filterless, dictionary-
// eligible, NULL-dominated, partial and zero-match predicates, global and
// grouped (the n_a and n_flag keys are a third NULL).
var aggQueries = []string{
	"SELECT COUNT(*) FROM nh",
	"SELECT COUNT(*), COUNT(n_a), SUM(n_a), AVG(n_b), MIN(n_s), MAX(n_s) FROM nh",
	"SELECT SUM(n_key), MIN(n_b), MAX(n_b), AVG(n_a) FROM nh WHERE n_s LIKE 'wo%'",
	"SELECT COUNT(*), MIN(n_key), MAX(n_key), COUNT(n_b) FROM nh WHERE n_s LIKE '%or%'",
	"SELECT COUNT(n_s), MIN(n_s), MAX(n_s), SUM(n_a) FROM nh WHERE n_s IN ('word-1', 'wo-4', '')",
	"SELECT COUNT(*), SUM(n_key), AVG(n_b) FROM nh WHERE n_a IS NULL",
	"SELECT COUNT(*), SUM(n_a), MIN(n_s), MAX(n_b) FROM nh WHERE n_key < 0",
	"SELECT AVG(n_a), AVG(n_b), MIN(n_a), MAX(n_a) FROM nh WHERE n_a % 3 = 1 AND n_s LIKE '%-3'",
	"SELECT n_a, COUNT(*), COUNT(n_b), SUM(n_b), MIN(n_s), MAX(n_key) FROM nh GROUP BY n_a",
	"SELECT SUM(n_a * n_b), AVG(n_a + n_key), MAX(n_b * 2) FROM nh WHERE n_s LIKE 'wo%'",
	"SELECT MIN(n_flag), MAX(n_flag), COUNT(n_flag), COUNT(DISTINCT NULL) FROM nh",
	"SELECT n_flag, COUNT(DISTINCT n_s), COUNT(DISTINCT n_a), MIN(n_flag) FROM nh GROUP BY n_flag",
}

// TestAggEquivalence: every aggregate shape must return the oracle's rows,
// with identical billed bytes and scan stats, across serial and parallel
// execution at widths 2 and 8.
func TestAggEquivalence(t *testing.T) {
	e := newNullHeavyEngine(t)
	for _, q := range aggQueries {
		expectOracle(t, q, q, e, runVecEquivQuery(t, e, q)...)
	}
}

// TestDistinctSharesGroupByEquality: COUNT(DISTINCT x) must count exactly
// the groups GROUP BY x forms. n_b * n_a over n_b = 0 yields both -0.0 and
// 0.0, which GROUP BY (and joins) treat as one value.
func TestDistinctSharesGroupByEquality(t *testing.T) {
	e := newNullHeavyEngine(t)
	ctx := context.Background()
	const where = "FROM nh WHERE n_b = 0 AND n_a <> 0"
	run := func(q string) *Result {
		t.Helper()
		res, err := e.Execute(ctx, "db", q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		expectOracle(t, q, q, e, res)
		return res
	}
	distinct := run("SELECT COUNT(DISTINCT n_b * n_a) " + where)
	groups := run("SELECT n_b * n_a, COUNT(*) " + where + " GROUP BY n_b * n_a")
	if got := distinct.Rows[0][0].I; got != int64(len(groups.Rows)) {
		t.Fatalf("COUNT(DISTINCT) = %d, GROUP BY forms %d groups %v", got, len(groups.Rows), rowsAsStrings(groups))
	}

	distinct = run("SELECT n_flag, COUNT(DISTINCT n_b * n_a) " + where + " GROUP BY n_flag")
	groups = run("SELECT n_flag, n_b * n_a, COUNT(*) " + where + " GROUP BY n_flag, n_b * n_a")
	perFlag := map[string]int64{}
	for _, row := range groups.Rows {
		perFlag[row[0].String()]++
	}
	if len(distinct.Rows) != len(perFlag) {
		t.Fatalf("%d flag groups vs %d", len(distinct.Rows), len(perFlag))
	}
	for _, row := range distinct.Rows {
		if want := perFlag[row[0].String()]; row[1].I != want {
			t.Fatalf("n_flag=%v COUNT(DISTINCT) = %d, GROUP BY forms %d groups", row[0], row[1].I, want)
		}
	}
}

// TestAggEmptyTable: an empty global aggregate yields one row (COUNT = 0,
// everything else NULL) and an empty grouped one yields none, as in the
// oracle.
func TestAggEmptyTable(t *testing.T) {
	e := newNullHeavyEngine(t)
	ctx := context.Background()
	if _, err := e.Execute(ctx, "db", "CREATE TABLE et (e_a BIGINT, e_b DOUBLE, e_s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{
		"SELECT COUNT(*), COUNT(e_a), SUM(e_a), AVG(e_b), MIN(e_s), MAX(e_b) FROM et": 1,
		"SELECT e_s, COUNT(*), SUM(e_a), MIN(e_b) FROM et GROUP BY e_s":               0,
	} {
		res, err := e.Execute(ctx, "db", q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Fatalf("%s: %d rows %q, want %d", q, len(res.Rows), rowsAsStrings(res), want)
		}
		expectOracle(t, q, q, e, res)
	}
}

// TestFusedAggDistributed runs global and grouped aggregates through the CF
// wire path (worker requests, store shuffle, partial aggregation with AVG
// reconstruction) and pins serial-identical rows and billing.
func TestFusedAggDistributed(t *testing.T) {
	e := newNullHeavyEngine(t)
	for _, q := range []string{
		"SELECT COUNT(*), SUM(n_key), SUM(n_a), AVG(n_b), MIN(n_s), MAX(n_s) FROM nh WHERE n_s LIKE '%or%'",
		"SELECT COUNT(n_a), MIN(n_b), MAX(n_key), AVG(n_a) FROM nh",
		"SELECT n_a, COUNT(*), SUM(n_b), AVG(n_key), MIN(n_s), MAX(n_flag) FROM nh GROUP BY n_a",
	} {
		serial := serialResult(t, e, q)
		for _, width := range []int{1, 2, 8} {
			dist := runDist(t, e, q, width, &LocalInvoker{Engine: e})
			expectDistMatchesSerial(t, fmt.Sprintf("%s @%d", q, width), serial, dist)
		}
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
