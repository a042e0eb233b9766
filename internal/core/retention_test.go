package core

import (
	"strings"
	"testing"

	"repro/internal/billing"
	"repro/internal/col"
	"repro/internal/engine"
)

// sizedOutcome is a successful execution whose result MemSize is about
// mib MiB, almost all of it string bytes: one shared 1 KiB string per row,
// so the estimate is large while the test's real memory is not.
func sizedOutcome(mib int) Outcome {
	s := strings.Repeat("x", 1024)
	rows := mib << 20 / (24 + 48 + len(s))
	res := &engine.Result{
		Columns: []string{"s"},
		Types:   []col.Type{col.STRING},
		Stats:   engine.Stats{BytesScanned: stubBytes, RowsScanned: int64(rows), RowsReturned: int64(rows)},
	}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, []col.Value{col.Str(s)})
	}
	return Outcome{Stats: res.Stats, Result: res}
}

// run submits a query on the rig's one slot and completes it with out.
func (r *testRig) run(t *testing.T, ex *stubExecutor, key string, out Outcome) *Query {
	t.Helper()
	q := r.submitKey(billing.Immediate, key)
	ex.complete(t, len(ex.runs)-1, out)
	<-q.Done()
	return q
}

// expectRows asserts q finished holding all n rows.
func expectRows(t *testing.T, q *Query, n int) {
	t.Helper()
	if q.Released() {
		t.Fatalf("%s released, want its rows kept", q.ID)
	}
	if res := q.Result(); res == nil || len(res.Rows) != n {
		t.Fatalf("%s result = %v, want %d rows", q.ID, res, n)
	}
}

// expectReleased asserts q is finished with its rows gone and everything
// else — status, header, stats, bill, Done — kept.
func (r *testRig) expectReleased(t *testing.T, q *Query, want engine.Stats) {
	t.Helper()
	if !q.Released() || q.Status() != StatusFinished {
		t.Fatalf("%s: released=%v status=%s, want a released finished query", q.ID, q.Released(), q.Status())
	}
	res := q.Result()
	if res == nil || res.Rows != nil || len(res.Columns) != 1 || len(res.Types) != 1 || res.Stats != want {
		t.Fatalf("%s released result = %+v, want the header with stats %+v", q.ID, res, want)
	}
	if b := r.bill(t, q); b.Status != "finished" || b.BytesScanned != want.BytesScanned {
		t.Fatalf("%s bill = %+v", q.ID, b)
	}
	select {
	case <-q.Done():
	default:
		t.Fatalf("%s: Done reopened", q.ID)
	}
}

func TestRetentionReleasesOldestFirst(t *testing.T) {
	r, ex, _ := newSingleFlightRig(t)
	six := sizedOutcome(6)
	n := len(six.Result.Rows)
	a := r.run(t, ex, "a", six)
	b := r.run(t, ex, "b", six)
	expectRows(t, a, n)
	expectRows(t, b, n)
	if a.Payload != nil || b.Payload != nil {
		t.Fatal("a finished query still pins its payload")
	}

	// 18 MiB retained: the oldest goes, with its strings counted (a
	// row-count-only estimate would keep all three).
	c := r.run(t, ex, "c", six)
	r.expectReleased(t, a, six.Stats)
	expectRows(t, b, n)
	expectRows(t, c, n)

	// A result larger than the whole budget releases everything older and
	// stays itself, until something newer arrives.
	big := sizedOutcome(20)
	d := r.run(t, ex, "d", big)
	r.expectReleased(t, b, six.Stats)
	r.expectReleased(t, c, six.Stats)
	expectRows(t, d, len(big.Result.Rows))
	e := r.run(t, ex, "e", stubOutcome())
	r.expectReleased(t, d, big.Stats)
	expectRows(t, e, 1)

	// An empty result is never mistaken for a released one.
	empty := stubOutcome()
	empty.Result.Rows = nil
	f := r.run(t, ex, "f", empty)
	if f.Released() || f.Result() == nil || len(f.Result().Rows) != 0 {
		t.Fatalf("empty result: released=%v result=%+v", f.Released(), f.Result())
	}
}

// A query that never ran drops its payload too.
func TestRetiredQueryDropsPayload(t *testing.T) {
	r, ex, _ := newSingleFlightRig(t)
	r.submitKey(billing.Immediate, "blocker") // holds the one slot
	q := r.submitKey(billing.Relaxed, "queued")
	if err := r.coord.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	<-q.Done()
	if q.Payload != nil {
		t.Fatal("canceled query still pins its payload")
	}
	ex.complete(t, 0, stubOutcome())
}

// Releasing a cache hit drops the query's view of the rows, never the
// result-cache entry the rows are shared with.
func TestReleasingCacheHitKeepsCacheEntry(t *testing.T) {
	r, ex, rc := newSingleFlightRig(t)
	ten := sizedOutcome(10)
	n := len(ten.Result.Rows)
	fill := r.run(t, ex, "k", ten)
	hit1 := r.submitKey(billing.Immediate, "k")
	hit2 := r.submitKey(billing.Immediate, "k")
	if len(ex.runs) != 1 {
		t.Fatalf("hits executed: %d runs", len(ex.runs))
	}
	r.expectReleased(t, fill, ten.Stats)
	hitStats := engine.Stats{RowsReturned: int64(n)}
	r.expectReleased(t, hit1, hitStats)
	if res := hit1.Result(); !res.Cached || res.Origin == nil || *res.Origin != ten.Stats {
		t.Fatalf("released hit lost its provenance: %+v", res)
	}
	expectRows(t, hit2, n)

	hit3 := r.submitKey(billing.Immediate, "k")
	expectRows(t, hit3, n)
	if !hit3.CacheHit() || len(ex.runs) != 1 {
		t.Fatalf("next submission: cacheHit=%v runs=%d", hit3.CacheHit(), len(ex.runs))
	}
	if st := rc.Stats(); st.Entries != 1 || st.Hits != 3 {
		t.Fatalf("result cache stats = %+v", st)
	}
}

// Waiters settled after their fill's rows were released still get rows.
func TestFillWaitersGetRowsAfterFillRelease(t *testing.T) {
	r, ex, _ := newSingleFlightRig(t)
	ten := sizedOutcome(10)
	fill := r.submitKey(billing.Immediate, "k")
	w := r.submitKey(billing.Immediate, "k")
	ex.complete(t, 0, ten)
	r.expectReleased(t, fill, ten.Stats)
	expectRows(t, w, len(ten.Result.Rows))
	if !w.CacheHit() || w.Payload != nil {
		t.Fatalf("waiter: cacheHit=%v payload=%v", w.CacheHit(), w.Payload)
	}
}
