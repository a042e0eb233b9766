package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/col"
	"repro/internal/engine"
	"repro/internal/qcache"
	"repro/internal/vclock"
	"repro/internal/vmsim"
)

// stubExecutor accepts PlanPayload queries on VM slots and completes each
// one when the test says so, which makes "in flight" a state the test
// holds for as long as it needs.
type stubExecutor struct {
	runs []stubRun
}

type stubRun struct {
	q    *Query
	done func(Outcome)
}

func (e *stubExecutor) VMRun(q *Query, done func(Outcome)) {
	e.runs = append(e.runs, stubRun{q, done})
}

func (e *stubExecutor) CFPlan(*Query, int) (CFJob, error) {
	return nil, errors.New("stub executor has no CF tier")
}

// complete settles the i-th execution, in start order.
func (e *stubExecutor) complete(t *testing.T, i int, out Outcome) {
	t.Helper()
	if i >= len(e.runs) {
		t.Fatalf("execution %d never started (%d did)", i, len(e.runs))
	}
	e.runs[i].done(out)
}

const stubBytes = 4096

func stubOutcome() Outcome {
	res := &engine.Result{
		Columns: []string{"n"},
		Types:   []col.Type{col.INT64},
		Rows:    [][]col.Value{{col.Int(7)}},
		Stats:   engine.Stats{BytesScanned: stubBytes, RowsScanned: 100, RowsReturned: 1},
	}
	return Outcome{Stats: res.Stats, Result: res}
}

// newSingleFlightRig wires a coordinator with a result cache over the stub
// executor and a one-slot cluster. The cache holds more than the
// coordinator retains, so retention tests can fill it.
func newSingleFlightRig(t *testing.T) (*testRig, *stubExecutor, *qcache.ResultCache) {
	t.Helper()
	clk := vclock.NewVirtual(t0)
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 1}, 1)
	cf := cfsim.NewService(clk, cfsim.Config{})
	ledger := billing.NewLedger()
	ex := &stubExecutor{}
	rc := qcache.NewResultCache(4 * resultRetentionBytes)
	coord := NewCoordinator(clk, Config{GracePeriod: time.Hour, ResultCache: rc}, cluster, cf, ex, ledger)
	return &testRig{clk: clk, cluster: cluster, cf: cf, coord: coord, ledger: ledger}, ex, rc
}

func (r *testRig) submitKey(level billing.Level, key string) *Query {
	return r.coord.Submit("stub "+key, level, PlanPayload{ResultKey: key})
}

func (r *testRig) bill(t *testing.T, q *Query) billing.QueryBill {
	t.Helper()
	for _, b := range r.ledger.All() {
		if b.QueryID == q.ID {
			return b
		}
	}
	t.Fatalf("%s is not in the ledger (status %s)", q.ID, q.Status())
	return billing.QueryBill{}
}

// expectWaiterHit asserts a settled waiter reads as a cache hit that cost
// nothing: the fill's rows, zero bytes, zero price, zero usage.
func (r *testRig) expectWaiterHit(t *testing.T, w *Query) {
	t.Helper()
	if w.Status() != StatusFinished || !w.CacheHit() {
		t.Fatalf("waiter %s: status=%s cacheHit=%v err=%v", w.ID, w.Status(), w.CacheHit(), w.Err())
	}
	res := w.Result()
	if res == nil || !res.Cached || len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("waiter %s result = %+v", w.ID, res)
	}
	b := r.bill(t, w)
	if !b.CacheHit || b.BytesScanned != 0 || b.ListPrice != 0 || b.Usage != (billing.ResourceUsage{}) {
		t.Fatalf("waiter %s was charged: %+v", w.ID, b)
	}
}

func TestSingleFlightIdenticalQueries(t *testing.T) {
	r, ex, _ := newSingleFlightRig(t)
	fill := r.submitKey(billing.Immediate, "k")
	w1 := r.submitKey(billing.Immediate, "k")
	w2 := r.submitKey(billing.Relaxed, "k")
	if len(ex.runs) != 1 || ex.runs[0].q != fill {
		t.Fatalf("%d executions started for three identical submissions", len(ex.runs))
	}
	if fill.Status() != StatusRunning || w1.Status() != StatusQueued || w2.Status() != StatusQueued {
		t.Fatalf("statuses = %s %s %s", fill.Status(), w1.Status(), w2.Status())
	}
	r.clk.Advance(time.Second)
	ex.complete(t, 0, stubOutcome())

	if fill.Status() != StatusFinished || fill.CacheHit() {
		t.Fatalf("fill: status=%s cacheHit=%v", fill.Status(), fill.CacheHit())
	}
	fb := r.bill(t, fill)
	if fb.CacheHit || fb.BytesScanned != stubBytes || fb.ListPrice <= 0 || fb.Usage.VMSeconds <= 0 {
		t.Fatalf("fill bill = %+v", fb)
	}
	r.expectWaiterHit(t, w1)
	r.expectWaiterHit(t, w2)
	if o := w1.Result().Origin; o == nil || o.BytesScanned != stubBytes {
		t.Fatalf("waiter origin = %+v", o)
	}
	if len(ex.runs) != 1 {
		t.Fatalf("waiters executed: %d runs", len(ex.runs))
	}
	if got := r.coord.CacheHitCount(); got != 2 {
		t.Fatalf("cache hit count = %d, want 2", got)
	}

	// A different key is a different query: it executes and pays itself.
	other := r.submitKey(billing.Immediate, "other")
	if len(ex.runs) != 2 || ex.runs[1].q != other {
		t.Fatalf("distinct key did not execute (%d runs)", len(ex.runs))
	}
	ex.complete(t, 1, stubOutcome())
	if b := r.bill(t, other); b.CacheHit || b.BytesScanned != stubBytes {
		t.Fatalf("distinct key bill = %+v", b)
	}
}

func TestSubmissionAfterFillIsPlainHit(t *testing.T) {
	r, ex, rc := newSingleFlightRig(t)
	fill := r.submitKey(billing.Immediate, "k")
	ex.complete(t, 0, stubOutcome())
	if fill.Status() != StatusFinished {
		t.Fatalf("fill status = %s", fill.Status())
	}
	late := r.submitKey(billing.Immediate, "k")
	r.expectWaiterHit(t, late)
	if len(ex.runs) != 1 {
		t.Fatalf("hit executed: %d runs", len(ex.runs))
	}
	if st := rc.Stats(); st.Fills != 1 || st.Hits != 1 {
		t.Fatalf("result cache stats = %+v", st)
	}
}

func TestCancelFollowerLeavesLeader(t *testing.T) {
	r, ex, _ := newSingleFlightRig(t)
	fill := r.submitKey(billing.Immediate, "k")
	canceled := r.submitKey(billing.Immediate, "k")
	kept := r.submitKey(billing.Immediate, "k")
	if err := r.coord.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	if canceled.Status() != StatusCanceled || canceled.CacheHit() {
		t.Fatalf("canceled waiter: status=%s cacheHit=%v", canceled.Status(), canceled.CacheHit())
	}
	if fill.Status() != StatusRunning {
		t.Fatalf("fill harmed by waiter cancel: %s", fill.Status())
	}
	ex.complete(t, 0, stubOutcome())
	if fill.Status() != StatusFinished {
		t.Fatalf("fill status = %s", fill.Status())
	}
	r.expectWaiterHit(t, kept)
	if canceled.Status() != StatusCanceled || canceled.Result() != nil {
		t.Fatalf("canceled waiter settled by the fill: %s", canceled.Status())
	}
	if n := r.ledger.Len(); n != 2 {
		t.Fatalf("ledger holds %d rows, want the fill's and the kept waiter's", n)
	}
}

func TestCancelLeaderPromotesFollower(t *testing.T) {
	r, ex, _ := newSingleFlightRig(t)
	blocker := r.submitKey(billing.Immediate, "blocker")
	// The only slot is busy: the fill queues as relaxed, its twins wait on it.
	fill := r.submitKey(billing.Relaxed, "k")
	first := r.submitKey(billing.Relaxed, "k")
	second := r.submitKey(billing.Relaxed, "k")
	if fill.Status() != StatusQueued || len(ex.runs) != 1 {
		t.Fatalf("setup: fill=%s runs=%d", fill.Status(), len(ex.runs))
	}
	if err := r.coord.Cancel(fill.ID); err != nil {
		t.Fatal(err)
	}
	if fill.Status() != StatusCanceled {
		t.Fatalf("canceled fill status = %s", fill.Status())
	}
	if first.Status() != StatusQueued || second.Status() != StatusQueued {
		t.Fatalf("waiters after fill cancel: %s %s", first.Status(), second.Status())
	}

	// The slot frees: the promoted waiter takes it and executes for itself.
	ex.complete(t, 0, stubOutcome())
	if blocker.Status() != StatusFinished {
		t.Fatalf("blocker status = %s", blocker.Status())
	}
	if len(ex.runs) != 2 || ex.runs[1].q != first {
		t.Fatalf("first waiter was not promoted to fill (%d runs)", len(ex.runs))
	}
	r.clk.Advance(time.Second)
	ex.complete(t, 1, stubOutcome())
	if first.Status() != StatusFinished || first.CacheHit() {
		t.Fatalf("promoted waiter: status=%s cacheHit=%v", first.Status(), first.CacheHit())
	}
	if b := r.bill(t, first); b.CacheHit || b.BytesScanned != stubBytes || b.ListPrice <= 0 || b.Usage.VMSeconds <= 0 {
		t.Fatalf("promoted waiter bill = %+v", b)
	}
	r.expectWaiterHit(t, second)
	if len(ex.runs) != 2 {
		t.Fatalf("remaining waiter executed: %d runs", len(ex.runs))
	}
}

func TestFollowerSharesFailure(t *testing.T) {
	r, ex, rc := newSingleFlightRig(t)
	fill := r.submitKey(billing.Immediate, "k")
	waiters := []*Query{r.submitKey(billing.Immediate, "k"), r.submitKey(billing.Relaxed, "k")}
	boom := errors.New("boom")
	ex.complete(t, 0, Outcome{Err: boom})
	if fill.Status() != StatusFailed {
		t.Fatalf("fill status = %s", fill.Status())
	}
	for _, w := range waiters {
		if w.Status() != StatusFailed || !errors.Is(w.Err(), boom) || w.CacheHit() {
			t.Fatalf("waiter %s: status=%s err=%v cacheHit=%v", w.ID, w.Status(), w.Err(), w.CacheHit())
		}
		b := r.bill(t, w)
		if b.Status != "failed" || b.BytesScanned != 0 || b.ListPrice != 0 || b.Usage != (billing.ResourceUsage{}) {
			t.Fatalf("waiter %s bill = %+v", w.ID, b)
		}
	}
	if st := rc.Stats(); st.Fills != 0 || st.Entries != 0 {
		t.Fatalf("failed fill was cached: %+v", st)
	}
	// The failure is not sticky: the next submission executes afresh.
	retry := r.submitKey(billing.Immediate, "k")
	if len(ex.runs) != 2 || ex.runs[1].q != retry {
		t.Fatalf("retry after failed fill did not execute (%d runs)", len(ex.runs))
	}
}
