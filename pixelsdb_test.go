package pixelsdb

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/vmsim"
)

func TestOpenLoadQueryClose(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.002); err != nil {
		t.Fatal(err)
	}

	// Synchronous path.
	res, err := db.Execute(context.Background(), "tpch", "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I <= 0 {
		t.Fatalf("count = %v", res.Rows)
	}

	// Scheduled path at each level.
	for _, level := range []Level{Immediate, Relaxed, BestEffort} {
		q, err := db.Submit("tpch", "SELECT COUNT(*) FROM lineitem", level)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-q.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("level %s timed out", level)
		}
		if q.Err() != nil {
			t.Fatalf("level %s: %v", level, q.Err())
		}
		if q.Result() == nil || len(q.Result().Rows) != 1 {
			t.Fatalf("level %s: result missing", level)
		}
	}
	if db.Ledger().Len() != 3 {
		t.Fatalf("ledger entries = %d", db.Ledger().Len())
	}
}

func TestAskAndSubmit(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.002); err != nil {
		t.Fatal(err)
	}
	q, tr, err := db.AskAndSubmit("tpch", "How many customers are there?", Immediate)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SQL == "" || tr.Translator == "" {
		t.Fatalf("translation = %+v", tr)
	}
	<-q.Done()
	if q.Err() != nil {
		t.Fatal(q.Err())
	}
}

func TestSubmitRejectsNonSelect(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.002); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Submit("tpch", "DROP TABLE orders", Immediate); err == nil {
		t.Fatalf("non-SELECT scheduled")
	}
	if _, err := db.Submit("tpch", "SELECT zzz FROM orders", Immediate); err == nil {
		t.Fatalf("plan error not surfaced")
	}
}

// A Submit handle whose rows the scheduler released under its retention
// budget says so, and keeps everything but the rows.
func TestSubmitHandleReportsRelease(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.01); err != nil {
		t.Fatal(err)
	}
	run := func() *Query {
		t.Helper()
		q, err := db.Submit("tpch", "SELECT * FROM lineitem", Immediate)
		if err != nil {
			t.Fatal(err)
		}
		<-q.Done()
		if q.Err() != nil {
			t.Fatal(q.Err())
		}
		return q
	}
	first := run()
	rows := len(first.Result().Rows)
	if rows == 0 || first.Released() {
		t.Fatalf("fresh handle: %d rows, released=%v", rows, first.Released())
	}
	for i := 0; !first.Released(); i++ {
		if i == 64 {
			t.Fatal("64 whole-table results never released the first")
		}
		if last := run(); last.Released() || len(last.Result().Rows) != rows {
			t.Fatalf("newest handle: released=%v, %d rows", last.Released(), len(last.Result().Rows))
		}
	}
	res := first.Result()
	if res.Rows != nil || len(res.Columns) == 0 || res.Stats.RowsReturned != int64(rows) ||
		res.Stats.BytesScanned == 0 || first.Status() != "finished" {
		t.Fatalf("released handle: status %s, result %+v", first.Status(), res)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadSampleData("tpch", 0.002); err != nil {
		t.Fatal(err)
	}
	want, err := db.Execute(context.Background(), "tpch", "SELECT COUNT(*) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err := db2.Execute(context.Background(), "tpch", "SELECT COUNT(*) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].I != want.Rows[0][0].I {
		t.Fatalf("reopened count = %v, want %v", got.Rows[0][0], want.Rows[0][0])
	}
}

// TestInsertAfterReopenKeepsExistingFiles: the first INSERT after
// reopening a DataDir must continue the table's file sequence — not
// restart it at data-000000 and overwrite the table's first file.
func TestInsertAfterReopenKeepsExistingFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadSampleData("tpch", 0.002); err != nil {
		t.Fatal(err)
	}
	before, err := db.Execute(ctx, "tpch", "SELECT COUNT(*) FROM region")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Engine().Catalog().GetTable("tpch", "region")
	if err != nil {
		t.Fatal(err)
	}
	firstKey := tbl.Files[0].Key
	firstBytes, err := db.Engine().Store().Get(firstKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Execute(ctx, "tpch", "INSERT INTO region VALUES (99, 'X')"); err != nil {
		t.Fatal(err)
	}
	after, err := db2.Execute(ctx, "tpch", "SELECT COUNT(*) FROM region")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Rows[0][0].I, before.Rows[0][0].I+1; got != want {
		t.Fatalf("count after reopen + insert = %d, want %d", got, want)
	}
	tbl, err = db2.Engine().Catalog().GetTable("tpch", "region")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range tbl.Files {
		if seen[f.Key] {
			t.Fatalf("catalog lists %s twice: %+v", f.Key, tbl.Files)
		}
		seen[f.Key] = true
	}
	got, err := db2.Engine().Store().Get(firstKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, firstBytes) {
		t.Fatalf("%s was overwritten by the insert (%d bytes, was %d)", firstKey, len(got), len(firstBytes))
	}
}

func TestPriceBookDefaults(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := db.PriceBook()
	if p.ScanPricePerTBAt(Immediate) != 5 || p.ScanPricePerTBAt(Relaxed) != 2 || p.ScanPricePerTBAt(BestEffort) != 0.5 {
		t.Fatalf("prices = %v %v %v", p.ScanPricePerTBAt(Immediate), p.ScanPricePerTBAt(Relaxed), p.ScanPricePerTBAt(BestEffort))
	}
}

// TestSubmitBareNullSelect: a SELECT of a bare NULL, submitted through the
// scheduler, finishes on the VM path and on the CF path with one NULL row
// per order and a normal bill.
func TestSubmitBareNullSelect(t *testing.T) {
	db, err := Open(Options{InitialVMs: 1, VM: vmsim.Config{SlotsPerVM: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.002); err != nil {
		t.Fatal(err)
	}
	count, err := db.Execute(context.Background(), "tpch", "SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	orders := int(count.Rows[0][0].I)
	run := func(wantCF bool) {
		t.Helper()
		q, err := db.Submit("tpch", "SELECT NULL FROM orders", Immediate)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-q.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("query timed out")
		}
		if err := q.Err(); err != nil {
			t.Fatalf("CF=%v: %v", wantCF, err)
		}
		if q.UsedCF() != wantCF {
			t.Fatalf("UsedCF = %v, want %v", q.UsedCF(), wantCF)
		}
		res := q.Result()
		if len(res.Rows) != orders {
			t.Fatalf("CF=%v: %d rows, want %d", wantCF, len(res.Rows), orders)
		}
		for _, row := range res.Rows {
			if !row[0].Null {
				t.Fatalf("CF=%v: row %v, want NULL", wantCF, row)
			}
		}
		billed := false
		for _, b := range db.Ledger().All() {
			if b.QueryID == q.ID {
				billed = true
				if b.BytesScanned <= 0 || b.UsedCF != wantCF {
					t.Fatalf("CF=%v: bill %+v", wantCF, b)
				}
			}
		}
		if !billed {
			t.Fatalf("CF=%v: no bill for %s", wantCF, q.ID)
		}
	}
	run(false)
	// Hold every VM slot so the Immediate query spills to CF.
	for {
		l, ok := db.Cluster().TryAcquire()
		if !ok {
			break
		}
		defer l.Release()
	}
	run(true)
}
