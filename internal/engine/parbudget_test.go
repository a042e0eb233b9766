package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sql"
)

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
	parallelBudget.resize(1)
	defer parallelBudget.resize(0)
	ResetParallelBudgetStats()

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

// TestParallelBudgetUnlimited: a negative budget removes the bound and wide
// execution still completes.
func TestParallelBudgetUnlimited(t *testing.T) {
	e := newBudgetEngine(t)
	parallelBudget.resize(-1)
	defer parallelBudget.resize(0)

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

	parallelBudget.resize(-1)
	base, err := runParallelWidth(t, e, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	parallelBudget.resize(1)
	defer parallelBudget.resize(0)
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
