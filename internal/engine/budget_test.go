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
)

// newBudgetEngine loads a table with many row groups so a pipelined scan
// keeps several decode workers busy.
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

// TestPrefetchBudgetBounds: with a budget of 1 token, concurrent pipelined
// scans may never hold more than one token at once no matter how many
// decode workers their depth implies (worker 0 of each pipeline is exempt
// and unobserved — the bound is on tokened decodes).
func TestPrefetchBudgetBounds(t *testing.T) {
	e := newBudgetEngine(t)
	e.prefetch = 8
	prefetchBudget.resize(1)
	defer prefetchBudget.resize(0)
	ResetPrefetchBudgetStats()

	ctx := context.Background()
	const q = "SELECT COUNT(*), SUM(b_val), MIN(b_s) FROM big"
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Execute(ctx, "db", q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if hw := PrefetchBudgetHighWater(); hw > 1 {
		t.Errorf("budget 1 but %d tokened decodes ran concurrently", hw)
	}
}

// TestPrefetchBudgetUnlimited: a negative budget removes the bound and the
// pipeline still drains correctly.
func TestPrefetchBudgetUnlimited(t *testing.T) {
	e := newBudgetEngine(t)
	e.prefetch = 8
	prefetchBudget.resize(-1)
	defer prefetchBudget.resize(0)

	res, err := e.Execute(context.Background(), "db", "SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 4*4096 {
		t.Fatalf("count %v", res.Rows[0][0])
	}
}

// TestPrefetchBudgetResultsUnchanged: the budget throttles scheduling only;
// results and billed bytes are identical at any budget.
func TestPrefetchBudgetResultsUnchanged(t *testing.T) {
	e := newBudgetEngine(t)
	e.prefetch = 8
	ctx := context.Background()
	const q = "SELECT COUNT(*), SUM(b_val) FROM big WHERE b_key % 3 = 0"

	prefetchBudget.resize(0)
	base, err := e.Execute(ctx, "db", q)
	if err != nil {
		t.Fatal(err)
	}
	prefetchBudget.resize(1)
	defer prefetchBudget.resize(0)
	tight, err := e.Execute(ctx, "db", q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rowsAsStrings(base)) != fmt.Sprint(rowsAsStrings(tight)) {
		t.Fatalf("rows differ: %v vs %v", rowsAsStrings(base), rowsAsStrings(tight))
	}
	if base.Stats.BytesScanned != tight.Stats.BytesScanned {
		t.Fatalf("billed bytes differ: %d vs %d", base.Stats.BytesScanned, tight.Stats.BytesScanned)
	}
}
