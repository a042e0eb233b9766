package pixelsdb

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/workload"
)

// TestMixedLevelsWithParallelExecutor floods the coordinator with queries
// at all three service levels while the VM side runs the intra-query
// parallel executor, then checks every query's stats and bill against the
// serial engine path. Service-level scheduling decides where each query
// runs; the engine's parallelism must never change what gets billed.
func TestMixedLevelsWithParallelExecutor(t *testing.T) {
	db, err := Open(Options{
		InitialVMs: 8, // 32 slots: everything fits on VMs, no CF fallback
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Many small files so the dominant scans actually partition.
	if err := workload.Load(db.Engine(), "tpch", workload.LoadOptions{SF: 0.005, Seed: 11, RowsPerFile: 2000}); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT COUNT(*) FROM lineitem",
		"SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
		"SELECT COUNT(*) FROM orders WHERE o_totalprice > 1000",
		"SELECT COUNT(DISTINCT o_custkey) FROM orders",
	}
	// Serial references, computed outside the scheduler.
	refs := make(map[string]*Result)
	for _, q := range queries {
		res, err := db.Execute(context.Background(), "tpch", q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		refs[q] = res
	}

	levels := []Level{Immediate, Relaxed, BestEffort}
	type submitted struct {
		q     *Query
		sql   string
		level Level
	}
	var subs []submitted
	for round := 0; round < 2; round++ {
		for _, sqlText := range queries {
			for _, level := range levels {
				q, err := db.Submit("tpch", sqlText, level)
				if err != nil {
					t.Fatalf("submit %q @%s: %v", sqlText, level, err)
				}
				subs = append(subs, submitted{q, sqlText, level})
			}
		}
	}
	for _, s := range subs {
		select {
		case <-s.q.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("%s %q timed out", s.level, s.sql)
		}
		if err := s.q.Err(); err != nil {
			t.Fatalf("%s %q failed: %v", s.level, s.sql, err)
		}
	}

	bills := make(map[string]billing.QueryBill)
	for _, b := range db.Ledger().All() {
		bills[b.QueryID] = b
	}
	book := db.PriceBook()
	for _, s := range subs {
		ref := refs[s.sql]
		res := s.q.Result()
		if s.q.UsedCF() {
			t.Fatalf("%s %q fell back to CF; the test needs VM runs", s.level, s.sql)
		}
		if res.Stats != ref.Stats {
			t.Errorf("%s %q stats = %+v, serial path %+v", s.level, s.sql, res.Stats, ref.Stats)
		}
		if fmt.Sprint(res.Rows) != fmt.Sprint(ref.Rows) {
			t.Errorf("%s %q rows diverged from serial path", s.level, s.sql)
		}
		bill, ok := bills[s.q.ID]
		if !ok {
			t.Fatalf("no bill for %s", s.q.ID)
		}
		if bill.BytesScanned != ref.Stats.BytesScanned {
			t.Errorf("%s %q billed %d bytes, serial path scanned %d", s.level, s.sql, bill.BytesScanned, ref.Stats.BytesScanned)
		}
		if want := book.ListPrice(s.level, ref.Stats.BytesScanned); bill.ListPrice != want {
			t.Errorf("%s %q list price %v, want %v", s.level, s.sql, bill.ListPrice, want)
		}
	}
}
