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

// TestAggEquivalence: every aggregate shape must be bit-identical — rows,
// billed bytes, scan stats — between the row-at-a-time interpreter and the
// vectorized path, across synchronous, pipelined and parallel execution at
// widths 1/2/8.
func TestAggEquivalence(t *testing.T) {
	e := newNullHeavyEngine(t)
	for _, q := range aggQueries {
		e.interp = true
		interp := runVecEquivQuery(t, e, q)
		e.interp = false
		vecd := runVecEquivQuery(t, e, q)

		base := interp[0]
		for i, res := range append(interp[1:], vecd...) {
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
		return res
	}
	for _, interp := range []bool{true, false} {
		e.interp = interp
		distinct := run("SELECT COUNT(DISTINCT n_b * n_a) " + where)
		groups := run("SELECT n_b * n_a, COUNT(*) " + where + " GROUP BY n_b * n_a")
		if got := distinct.Rows[0][0].I; got != int64(len(groups.Rows)) {
			t.Fatalf("interp=%v: COUNT(DISTINCT) = %d, GROUP BY forms %d groups %v",
				interp, got, len(groups.Rows), rowsAsStrings(groups))
		}

		distinct = run("SELECT n_flag, COUNT(DISTINCT n_b * n_a) " + where + " GROUP BY n_flag")
		groups = run("SELECT n_flag, n_b * n_a, COUNT(*) " + where + " GROUP BY n_flag, n_b * n_a")
		perFlag := map[string]int64{}
		for _, row := range groups.Rows {
			perFlag[row[0].String()]++
		}
		if len(distinct.Rows) != len(perFlag) {
			t.Fatalf("interp=%v: %d flag groups vs %d", interp, len(distinct.Rows), len(perFlag))
		}
		for _, row := range distinct.Rows {
			if want := perFlag[row[0].String()]; row[1].I != want {
				t.Fatalf("interp=%v: n_flag=%v COUNT(DISTINCT) = %d, GROUP BY forms %d groups",
					interp, row[0], row[1].I, want)
			}
		}
	}
	e.interp = false
}

// TestFusedAggEmptyTable: an empty global aggregate yields one row (COUNT
// = 0, everything else NULL) and an empty grouped one yields none, in the
// interpreter and the vectorized path alike.
func TestFusedAggEmptyTable(t *testing.T) {
	e := newNullHeavyEngine(t)
	ctx := context.Background()
	if _, err := e.Execute(ctx, "db", "CREATE TABLE et (e_a BIGINT, e_b DOUBLE, e_s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{
		"SELECT COUNT(*), COUNT(e_a), SUM(e_a), AVG(e_b), MIN(e_s), MAX(e_b) FROM et": 1,
		"SELECT e_s, COUNT(*), SUM(e_a), MIN(e_b) FROM et GROUP BY e_s":               0,
	} {
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
		if len(gb) != want || len(wb) != want || (want == 1 && gb[0] != wb[0]) {
			t.Fatalf("%s: vectorized %q vs interpreted %q, want %d rows", q, gb, wb, want)
		}
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
