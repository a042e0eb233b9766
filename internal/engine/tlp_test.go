package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/objstore"
	"repro/internal/pixfile"
)

// TestTernaryLogicPartition is ternary logic partitioning (Rigger and Su,
// OOPSLA 2020), a metamorphic check that needs no oracle: every row makes
// a predicate p TRUE, FALSE or NULL, so the counts of WHERE p, WHERE NOT
// (p) and WHERE (p) IS NULL sum to the table's rows. Generated predicates
// over the NULL-heavy nh fixture, in row groups of 128, are counted
// serially, at width 2 and as a CF split through LocalInvoker, and each
// count must also agree across the three.
func TestTernaryLogicPartition(t *testing.T) {
	ctx := context.Background()
	e := New(catalog.New(), objstore.NewMemory())
	for _, q := range []string{
		"CREATE DATABASE db",
		`CREATE TABLE nh (n_key BIGINT NOT NULL, n_a BIGINT, n_b DOUBLE,
			n_s VARCHAR, n_flag BOOLEAN)`,
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	total := 0
	for _, b := range nullHeavyBatches() {
		if err := e.LoadBatch("db", "nh", b, pixfile.WriterOptions{RowGroupSize: 128}); err != nil {
			t.Fatal(err)
		}
		total += b.N
	}
	count := func(q, how string, id int) int64 {
		t.Helper()
		node := planNode(t, e, q)
		var res *Result
		var err error
		switch how {
		case "serial":
			res, err = e.RunPlan(ctx, node)
		case "width 2":
			res, err = e.RunPlanParallel(ctx, node, 2)
		case "cf":
			var split *CFSplit
			if split, err = e.SplitForCF(node, fmt.Sprintf("tlp-%d", id), 2); err == nil {
				res, _, err = splitCF(e, &LocalInvoker{Engine: e}, split)
			}
		}
		if err != nil {
			t.Fatalf("%s, %s: %v", q, how, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Null {
			t.Fatalf("%s, %s: rows %v", q, how, rowsAsStrings(res))
		}
		return res.Rows[0][0].I
	}
	rng := rand.New(rand.NewSource(57))
	for i := 0; i < 120; i++ {
		p := tlpPred(rng, 3)
		var want [3]int64
		for h, how := range []string{"serial", "width 2", "cf"} {
			var got [3]int64
			for k, where := range []string{p, "NOT (" + p + ")", "(" + p + ") IS NULL"} {
				got[k] = count("SELECT COUNT(*) FROM nh WHERE "+where, how, i)
			}
			if sum := got[0] + got[1] + got[2]; sum != int64(total) {
				t.Fatalf("%s, %s: TRUE %d + FALSE %d + NULL %d = %d rows of %d", p, how, got[0], got[1], got[2], sum, total)
			}
			if h == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s, %s: counts %v, serially %v", p, how, got, want)
			}
		}
	}
}

// tlpPred generates a predicate over nh, nesting AND, OR and NOT at most
// depth levels deep above comparisons, IN lists, LIKE and IS [NOT] NULL
// over every column, with NULL literals among the operands.
func tlpPred(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(3) {
		case 0:
			return "(" + tlpPred(rng, depth-1) + " AND " + tlpPred(rng, depth-1) + ")"
		case 1:
			return "(" + tlpPred(rng, depth-1) + " OR " + tlpPred(rng, depth-1) + ")"
		default:
			return "NOT (" + tlpPred(rng, depth-1) + ")"
		}
	}
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	cmp := pick("=", "<>", "<", "<=", ">", ">=")
	switch rng.Intn(9) {
	case 0:
		return "n_a " + cmp + " " + pick("-5", "-1", "0", "2", "4", "NULL")
	case 1:
		return "n_b " + cmp + " " + pick("-2.5", "-0.25", "0", "0.5", "3", "NULL")
	case 2:
		return "n_s " + cmp + " " + pick("''", "'wo-1'", "'word-3'", "'x'", "NULL")
	case 3:
		return "n_key " + cmp + " " + pick("0", "1000", "4096", "8191")
	case 4:
		return pick("n_a", "n_b", "n_s", "n_flag") + pick(" IS NULL", " IS NOT NULL")
	case 5:
		return pick("n_a IN (1, 2)", "n_a IN (0, NULL)", "n_a NOT IN (3, -3)", "n_s IN ('abc-0', 'wo-2')",
			"n_s NOT IN ('word-1', NULL)", "n_b IN (0.5, -1)")
	case 6:
		return "n_s " + pick("LIKE", "NOT LIKE") + " " + pick("'wo%'", "'%-1'", "'w_r%'", "''")
	case 7:
		return pick("n_flag", "NOT n_flag", "n_flag = TRUE", "n_flag <> FALSE")
	default:
		return pick("n_a + n_b", "n_a * 2", "n_key % 7", "n_b - n_a") + " " + cmp + " " + pick("0", "1", "-2.5")
	}
}
