package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/sql"
)

// newBudgetEngine loads a 4-file table with many row groups per file.
func newBudgetEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE big (b_key BIGINT NOT NULL, b_val DOUBLE NOT NULL, b_s VARCHAR NOT NULL)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for f := 0; f < 4; f++ {
		const rows = 4096
		k := col.NewVector(col.INT64, rows)
		v := col.NewVector(col.FLOAT64, rows)
		s := col.NewVector(col.STRING, rows)
		for i := 0; i < rows; i++ {
			id := f*rows + i
			k.Ints[i] = int64(id)
			v.Floats[i] = float64(id) / 3
			s.Strs[i] = fmt.Sprintf("val-%d-%d", id, id*7)
		}
		if err := e.LoadBatch("db", "big", col.NewBatch(k, v, s),
			pixfile.WriterOptions{RowGroupSize: 128}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// withParallelBudget swaps in a fresh width budget of n tokens and returns
// the function that restores the previous one.
func withParallelBudget(n int64) func() {
	old := parallelBudget
	parallelBudget = &widthBudget{cap: n}
	return func() { parallelBudget = old }
}

func runParallelWidth(t *testing.T, e *Engine, q string, width int) (*Result, error) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return e.RunPlanParallel(context.Background(), node, width)
}

// TestParallelBudgetBounds: with a budget of 1 token, concurrent parallel
// queries may never hold more than one extra-worker token at once no matter
// how wide they asked to run (the first worker of each query is exempt, so
// every query still makes progress).
func TestParallelBudgetBounds(t *testing.T) {
	e := newBudgetEngine(t)
	defer withParallelBudget(1)()

	const q = "SELECT COUNT(*), SUM(b_val), MIN(b_s) FROM big WHERE b_key % 2 = 0"
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = runParallelWidth(t, e, q, 8)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if hw := ParallelBudgetHighWater(); hw > 1 {
		t.Errorf("budget 1 but %d extra workers ran concurrently", hw)
	}
}

// TestParallelBudgetUnlimited: a budget wider than any request removes the
// bound and wide execution still completes.
func TestParallelBudgetUnlimited(t *testing.T) {
	e := newBudgetEngine(t)
	defer withParallelBudget(1 << 30)()

	res, err := runParallelWidth(t, e, "SELECT COUNT(*) FROM big", 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 4*4096 {
		t.Fatalf("count %v", res.Rows[0][0])
	}
}

// TestParallelBudgetResultsUnchanged: the budget only narrows the worker
// width — rows and billed bytes are identical whether a query got its full
// width, one token, or none.
func TestParallelBudgetResultsUnchanged(t *testing.T) {
	e := newBudgetEngine(t)
	const q = "SELECT COUNT(*), SUM(b_val), MAX(b_s) FROM big WHERE b_key % 3 = 0"

	restore := withParallelBudget(1 << 30)
	base, err := runParallelWidth(t, e, q, 8)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	defer withParallelBudget(1)()
	narrow, err := runParallelWidth(t, e, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rowsAsStrings(base)) != fmt.Sprint(rowsAsStrings(narrow)) {
		t.Fatalf("rows differ: %v vs %v", rowsAsStrings(base), rowsAsStrings(narrow))
	}
	if base.Stats.BytesScanned != narrow.Stats.BytesScanned {
		t.Fatalf("billed bytes differ: %d vs %d", base.Stats.BytesScanned, narrow.Stats.BytesScanned)
	}
}

// TestParallelBudgetTakesOnlyStartedWorkers: a run holds tokens only for
// the workers its split actually starts — one per partition past the first
// (a 4-file table splits into at most 4, whatever the width asked), and
// none at all when the plan falls back to the serial path.
func TestParallelBudgetTakesOnlyStartedWorkers(t *testing.T) {
	e := newBudgetEngine(t)
	for _, c := range []struct {
		q    string
		want int64
	}{
		{"SELECT COUNT(*), SUM(b_val) FROM big", 3},
		{"SELECT b_key FROM big LIMIT 5", 0}, // non-draining LIMIT: serial
	} {
		restore := withParallelBudget(16)
		_, err := runParallelWidth(t, e, c.q, 8)
		hw := ParallelBudgetHighWater()
		restore()
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if hw != c.want {
			t.Errorf("%s at width 8: %d tokens held at once, want %d", c.q, hw, c.want)
		}
	}
}
