package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/oracle"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
)

// nullHeavyBatches are the nh fixture's rows, one batch per file: every
// nullable column is ~1/3 NULL, so the engine and the oracle are compared
// under heavy three-valued logic, with row groups that are fully matching,
// partially matching and zero-matching for typical predicates.
func nullHeavyBatches() []*col.Batch {
	words := []string{"word", "world", "wo", "abc", ""}
	r := rand.New(rand.NewSource(11))
	var out []*col.Batch
	for f := 0; f < 4; f++ {
		const rows = 2048
		key := col.NewVector(col.INT64, rows)
		a := col.NewVector(col.INT64, rows)
		b := col.NewVector(col.FLOAT64, rows)
		s := col.NewVector(col.STRING, rows)
		fl := col.NewVector(col.BOOL, rows)
		for i := 0; i < rows; i++ {
			id := f*rows + i
			key.Ints[i] = int64(id)
			a.Ints[i] = int64(r.Intn(9) - 4)
			b.Floats[i] = float64(r.Intn(21)-10) / 4
			s.Strs[i] = fmt.Sprintf("%s-%d", words[r.Intn(len(words))], r.Intn(5))
			fl.Bools[i] = r.Intn(2) == 0
			for _, v := range []*col.Vector{a, b, s, fl} {
				if r.Intn(3) == 0 {
					v.SetNull(i)
				}
			}
		}
		out = append(out, col.NewBatch(key, a, b, s, fl))
	}
	return out
}

// newNullHeavyEngine loads nullHeavyBatches as table nh, one file per
// batch, in row groups of 256.
func newNullHeavyEngine(t testing.TB) *Engine {
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
	for _, b := range nullHeavyBatches() {
		if err := e.LoadBatch("db", "nh", b, pixfile.WriterOptions{RowGroupSize: 256}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// nullHeavyTable is the whole nh fixture as one in-memory batch.
func nullHeavyTable() *col.Batch { return concatBatches(nullHeavyBatches()) }

// concatBatches appends parts into one batch.
func concatBatches(parts []*col.Batch) *col.Batch {
	all := &col.Batch{Vecs: make([]*col.Vector, len(parts[0].Vecs))}
	for c, v := range parts[0].Vecs {
		all.Vecs[c] = col.NewVector(v.Type, 0)
	}
	for _, b := range parts {
		all.Append(b)
	}
	return all
}

// oracleResult plans q on e and runs the plan through the oracle over the
// in-memory tables: the nh fixture, and any other table of db as empty.
func oracleResult(t *testing.T, e *Engine, q string) ([]string, error) {
	t.Helper()
	return oracleOver(t, e, q, map[string]*col.Batch{"nh": nullHeavyTable()})
}

// oracleOver is oracleResult over the given tables' rows; a table not in
// tables is empty.
func oracleOver(t *testing.T, e *Engine, q string, tables map[string]*col.Batch) ([]string, error) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	out, err := oracle.Run(node, func(s *plan.ScanNode) (*col.Batch, error) {
		b := &col.Batch{Vecs: make([]*col.Vector, len(s.Cols))}
		for i, c := range s.Cols {
			if tab := tables[s.Table.Name]; tab != nil {
				b.Vecs[i], b.N = tab.Vecs[c], tab.N
			} else {
				b.Vecs[i] = col.NewVector(s.Table.Columns[c].Type, 0)
			}
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	return rowsAsStrings(resultFromBatch(node.Schema(), out, Stats{})), nil
}

// expectOracle fails unless every result holds the oracle's rows for q,
// in order, and every result's billed bytes and scan stats equal the
// first's.
func expectOracle(t *testing.T, label, q string, e *Engine, results ...*Result) {
	t.Helper()
	want, err := oracleResult(t, e, q)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	base := results[0]
	for i, res := range results {
		got := rowsAsStrings(res)
		if len(got) != len(want) {
			t.Fatalf("%s variant %d: %d rows, oracle %d", label, i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s variant %d: row %d %q, oracle %q", label, i, j, got[j], want[j])
			}
		}
		if res.Stats.BytesScanned != base.Stats.BytesScanned {
			t.Fatalf("%s variant %d: billed bytes %d vs %d", label, i, res.Stats.BytesScanned, base.Stats.BytesScanned)
		}
		if res.Stats.RowsScanned != base.Stats.RowsScanned ||
			res.Stats.RowsFiltered != base.Stats.RowsFiltered ||
			res.Stats.ColumnChunksSkipped != base.Stats.ColumnChunksSkipped ||
			res.Stats.RowGroupsPruned != base.Stats.RowGroupsPruned {
			t.Fatalf("%s variant %d: scan stats diverge: %+v vs %+v", label, i, res.Stats, base.Stats)
		}
	}
}

// vecEquivAtoms are WHERE building blocks spanning the kernel set (arith,
// comparisons, IS NULL, IN, every LIKE shape, CASE, scalar functions,
// CAST), plus zero-match and all-match shapes. String atoms mix dictionary-eligible forms (only the
// string column itself under compare/LIKE/IN) with ones that force full
// decode (functions over the string column).
var vecEquivAtoms = []string{
	"n_a % 3 = 1",
	"(n_key + n_a) % 5 < 2",
	"n_b * 2 > n_a",
	"n_key / 3 > 500",
	"n_s LIKE 'wo%'",
	"n_s LIKE '%-3'",
	"n_s LIKE '%or%'",
	"n_s LIKE 'w_rd-_'",
	"n_s = 'word-1'",
	"n_s IN ('word-1', 'wo-4', '')",
	"n_a IS NULL",
	"n_b IS NOT NULL",
	"n_a IN (1, 2)",
	"n_key < 0",
	"n_key >= 0",
	"-n_a > 2",
	"CASE WHEN n_a > 0 THEN n_b ELSE -n_b END > 0.5",
	"CASE WHEN n_flag THEN 1 ELSE 0 END = 1",
	"LENGTH(n_s) > 5",
	"LOWER(n_s) = 'word-1'",
	"SUBSTR(n_s, 1, 2) = 'wo'",
	"ABS(n_a) = 2",
	"COALESCE(n_a, 0) >= 0",
	"CAST(n_a AS VARCHAR) = '1'",
}

func randPredicate(r *rand.Rand) string {
	atom := func() string {
		a := vecEquivAtoms[r.Intn(len(vecEquivAtoms))]
		if r.Intn(4) == 0 {
			return "NOT (" + a + ")"
		}
		return a
	}
	p := atom()
	for n := r.Intn(3); n > 0; n-- {
		op := "AND"
		if r.Intn(2) == 0 {
			op = "OR"
		}
		p = fmt.Sprintf("(%s) %s (%s)", p, op, atom())
	}
	return p
}

// runVecEquivQuery executes q on every execution shape of one engine:
// serial, and parallel widths 2 and 8.
func runVecEquivQuery(t *testing.T, e *Engine, q string) []*Result {
	t.Helper()
	ctx := context.Background()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel := stmt.(*sql.Select)
	var out []*Result
	run := func(width int) {
		node, err := e.PlanQuery("db", sel)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		var res *Result
		if width <= 1 {
			res, err = e.RunPlan(ctx, node)
		} else {
			res, err = e.RunPlanParallel(ctx, node, width)
		}
		if err != nil {
			t.Fatalf("run %q (width=%d): %v", q, width, err)
		}
		out = append(out, res)
	}
	run(1)
	run(2)
	run(8)
	return out
}

// TestVectorizedEquivalenceProperty: for random NULL-heavy predicates,
// every execution variant — serial, parallel at widths 2 and 8 —
// must return the oracle's rows with identical billed bytes and scan stats.
func TestVectorizedEquivalenceProperty(t *testing.T) {
	e := newNullHeavyEngine(t)
	r := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 20; trial++ {
		pred := randPredicate(r)
		q := fmt.Sprintf(`SELECT COUNT(*), SUM(n_key), SUM(n_a), MIN(n_s), MAX(n_b)
			FROM nh WHERE %s`, pred)
		expectOracle(t, fmt.Sprintf("trial %d (%s)", trial, pred), q, e, runVecEquivQuery(t, e, q)...)
	}
}

// TestVectorizedEquivalenceRowOutput covers non-aggregate output (projected
// expressions and raw rows survive compaction identically, including the
// selection-aware decode of partially matching groups).
func TestVectorizedEquivalenceRowOutput(t *testing.T) {
	e := newNullHeavyEngine(t)
	queries := []string{
		// Partial row groups + payload string/float columns.
		"SELECT n_key, n_s, n_b FROM nh WHERE n_a % 3 = 1 ORDER BY n_key",
		// Projection arithmetic through the value kernels.
		"SELECT n_key + 1, n_a * 2, n_b / 4 FROM nh WHERE n_key % 97 = 0 ORDER BY n_key",
		// NULL-dominated predicate.
		"SELECT n_key FROM nh WHERE n_a IS NULL AND n_s LIKE 'wo%' ORDER BY n_key",
		// CASE and scalar functions through the value kernels, over a
		// dictionary-eligible string predicate.
		`SELECT CASE WHEN n_a > 0 THEN 'pos' WHEN n_a < 0 THEN 'neg' ELSE 'zero' END,
			UPPER(n_s), LENGTH(n_s), COALESCE(n_a, -99)
			FROM nh WHERE n_s LIKE '%or%' ORDER BY n_key`,
		// Nested functions + ROUND over floats.
		`SELECT SUBSTR(CONCAT(n_s, '!'), 2, 3), ROUND(n_b), ABS(n_a)
			FROM nh WHERE n_key % 53 = 0 ORDER BY n_key`,
		// Casts, predicates as values, computed LIKE patterns and NULL
		// operands.
		`SELECT CAST(n_b AS BIGINT), CAST(n_flag AS VARCHAR), n_s LIKE 'wo%',
			NOT n_flag, n_flag AND n_a > 0, n_a IN (1, 2, NULL), n_a + NULL
			FROM nh WHERE n_key % 31 = 0 ORDER BY n_key`,
		"SELECT n_key FROM nh WHERE n_s LIKE CONCAT(SUBSTR(n_s, 1, 2), '%') AND n_a = n_a ORDER BY n_key",
	}
	for _, q := range queries {
		expectOracle(t, q, q, e, runVecEquivQuery(t, e, q)...)
	}
}
