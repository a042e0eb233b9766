package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/vclock"
	"repro/internal/vmsim"
)

var t0 = time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)

// testRig wires a coordinator over virtual time with the simulated
// executor.
type testRig struct {
	clk     *vclock.Virtual
	cluster *vmsim.Cluster
	cf      *cfsim.Service
	coord   *Coordinator
	ledger  *billing.Ledger
}

func newRig(t *testing.T, vms int, cfg Config, vmCfg vmsim.Config, cfCfg cfsim.Config) *testRig {
	t.Helper()
	clk := vclock.NewVirtual(t0)
	cluster := vmsim.NewCluster(clk, vmCfg, vms)
	cf := cfsim.NewService(clk, cfCfg)
	ledger := billing.NewLedger()
	ex := NewSimExecutor(clk, SimExecutorConfig{})
	coord := NewCoordinator(clk, cfg, cluster, cf, ex, ledger)
	return &testRig{clk: clk, cluster: cluster, cf: cf, coord: coord, ledger: ledger}
}

const mb = int64(1e6)

func (r *testRig) submit(level billing.Level, bytes int64) *Query {
	return r.coord.Submit(fmt.Sprintf("sim-%s", level), level, SimPayload{Bytes: bytes})
}

func TestImmediateRunsOnVMWhenAvailable(t *testing.T) {
	r := newRig(t, 1, Config{}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{})
	q := r.submit(billing.Immediate, 250*mb)
	if q.Status() != StatusRunning {
		t.Fatalf("status = %s, want running", q.Status())
	}
	r.clk.Advance(5 * time.Second)
	if q.Status() != StatusFinished {
		t.Fatalf("status = %s, want finished", q.Status())
	}
	if q.UsedCF() {
		t.Fatalf("used CF despite free VM slot")
	}
	sub, start, end := q.Times()
	if !start.Equal(sub) {
		t.Fatalf("immediate query waited: %v", start.Sub(sub))
	}
	// 50ms overhead + 1s scan.
	if got := end.Sub(start); got != 1050*time.Millisecond {
		t.Fatalf("exec time = %v", got)
	}
}

func TestImmediateFallsBackToCF(t *testing.T) {
	r := newRig(t, 1, Config{CFMaxParts: 4}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	// Fill the only slot.
	q1 := r.submit(billing.Immediate, 2500*mb)
	if q1.UsedCF() {
		t.Fatalf("first query should use the VM")
	}
	q2 := r.submit(billing.Immediate, 1200*mb)
	if q2.Status() != StatusRunning || !q2.UsedCF() {
		t.Fatalf("second immediate query: status=%s usedCF=%v", q2.Status(), q2.UsedCF())
	}
	r.clk.Advance(30 * time.Second)
	if q2.Status() != StatusFinished {
		t.Fatalf("CF query did not finish: %s", q2.Status())
	}
	bills := r.ledger.All()
	var cfBill billing.QueryBill
	for _, b := range bills {
		if b.QueryID == q2.ID {
			cfBill = b
		}
	}
	if !cfBill.UsedCF || cfBill.Usage.CFInvocations != 4 || cfBill.Usage.CFGBSeconds <= 0 {
		t.Fatalf("CF bill wrong: %+v", cfBill)
	}
}

func TestRelaxedWaitsForVMWithinGrace(t *testing.T) {
	grace := 5 * time.Minute
	r := newRig(t, 1, Config{GracePeriod: grace}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	blocker := r.submit(billing.Immediate, 25_000*mb) // 100s on VM
	_ = blocker
	q := r.submit(billing.Relaxed, 250*mb)
	if q.Status() != StatusQueued {
		t.Fatalf("relaxed did not queue: %s", q.Status())
	}
	// VM frees after ~100s, well within grace: query must run on the VM.
	r.clk.Advance(2 * time.Minute)
	if q.Status() != StatusFinished {
		t.Fatalf("relaxed status = %s", q.Status())
	}
	if q.UsedCF() {
		t.Fatalf("relaxed used CF despite VM freeing within grace")
	}
	sub, start, _ := q.Times()
	pending := start.Sub(sub)
	if pending <= 0 || pending > grace {
		t.Fatalf("pending = %v, want within (0, %v]", pending, grace)
	}
}

func TestRelaxedFallsBackToCFAfterGrace(t *testing.T) {
	grace := 2 * time.Minute
	r := newRig(t, 1, Config{GracePeriod: grace, CFMaxParts: 2}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	r.submit(billing.Immediate, 250_000*mb) // blocks the VM for ~1000s
	q := r.submit(billing.Relaxed, 300*mb)
	r.clk.Advance(grace - time.Second)
	if q.Status() != StatusQueued {
		t.Fatalf("relaxed left the queue early: %s", q.Status())
	}
	r.clk.Advance(2 * time.Second)
	if q.Status() != StatusRunning || !q.UsedCF() {
		t.Fatalf("after grace: status=%s usedCF=%v", q.Status(), q.UsedCF())
	}
	sub, start, _ := q.Times()
	if got := start.Sub(sub); got != grace {
		t.Fatalf("pending = %v, want exactly grace %v", got, grace)
	}
}

func TestBestEffortNeverUsesCF(t *testing.T) {
	r := newRig(t, 1, Config{GracePeriod: time.Minute}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	r.submit(billing.Immediate, 25_000*mb) // ~100s on VM
	q := r.submit(billing.BestEffort, 250*mb)
	// Far beyond any grace period: still pending, still no CF.
	r.clk.Advance(90 * time.Second)
	if q.Status() != StatusQueued {
		t.Fatalf("best-effort status = %s before VM frees", q.Status())
	}
	r.clk.Advance(60 * time.Second)
	if q.Status() != StatusFinished || q.UsedCF() {
		t.Fatalf("best-effort: status=%s usedCF=%v", q.Status(), q.UsedCF())
	}
	if u := r.cf.Usage(); u.Invocations != 0 {
		t.Fatalf("best-effort triggered CF invocations: %+v", u)
	}
}

func TestBestEffortRunsImmediatelyOnIdleCluster(t *testing.T) {
	// "Relaxed or best-of-effort queries may be executed immediately if
	// the VM cluster is available."
	r := newRig(t, 1, Config{}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{})
	q := r.submit(billing.BestEffort, 250*mb)
	if q.Status() != StatusRunning {
		t.Fatalf("best-effort did not start on idle cluster: %s", q.Status())
	}
}

func TestRelaxedHasPriorityOverBestEffort(t *testing.T) {
	r := newRig(t, 1, Config{GracePeriod: 10 * time.Minute}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	r.submit(billing.Immediate, 2500*mb) // ~10s on VM
	be := r.submit(billing.BestEffort, 250*mb)
	rx := r.submit(billing.Relaxed, 250*mb)
	r.clk.Advance(11 * time.Second) // first query done; one slot frees
	if rx.Status() == StatusQueued {
		t.Fatalf("relaxed still pending after slot freed")
	}
	if be.Status() != StatusQueued {
		t.Fatalf("best-effort should still wait behind relaxed: %s", be.Status())
	}
	r.clk.Advance(5 * time.Second)
	if be.Status() == StatusQueued {
		t.Fatalf("best-effort never ran")
	}
}

func TestBestEffortYieldsToQueuedRelaxedOnSubmit(t *testing.T) {
	r := newRig(t, 1, Config{GracePeriod: 10 * time.Minute}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	r.submit(billing.Immediate, 2500*mb)
	rx := r.submit(billing.Relaxed, 2500*mb)
	// Slot frees at ~10s; relaxed should claim it even if a best-effort
	// arrives right as capacity frees.
	r.clk.Advance(11 * time.Second)
	be := r.submit(billing.BestEffort, 250*mb)
	if rx.Status() == StatusQueued {
		t.Fatalf("relaxed starved")
	}
	// The relaxed query holds the slot; best-effort must wait.
	if be.Status() != StatusQueued {
		t.Fatalf("best-effort jumped the queue: %s", be.Status())
	}
}

func TestDemandSignalExcludesBestEffort(t *testing.T) {
	r := newRig(t, 0, Config{GracePeriod: 10 * time.Minute}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	for i := 0; i < 3; i++ {
		r.submit(billing.BestEffort, 250*mb)
	}
	m := r.coord.Metrics()
	if m.QueuedDemand != 0 {
		t.Fatalf("best-effort leaked into demand: %d", m.QueuedDemand)
	}
	r.submit(billing.Relaxed, 250*mb)
	r.submit(billing.Relaxed, 250*mb)
	if m := r.coord.Metrics(); m.QueuedDemand != 2 {
		t.Fatalf("relaxed demand = %d, want 2", m.QueuedDemand)
	}
	// An immediate query with no VM goes to CF and counts as demand while
	// running there.
	r.submit(billing.Immediate, 2500*mb)
	if m := r.coord.Metrics(); m.QueuedDemand != 3 {
		t.Fatalf("demand with CF-running = %d, want 3", m.QueuedDemand)
	}
}

func TestPendingGuaranteeProperty(t *testing.T) {
	// SLA invariants across a randomized continuous workload:
	//   immediate: pending == 0
	//   relaxed:   pending <= grace
	//   all:       everything eventually finishes.
	grace := 3 * time.Minute
	r := newRig(t, 2, Config{GracePeriod: grace, CFMaxParts: 4}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{})
	levels := []billing.Level{billing.Immediate, billing.Relaxed, billing.BestEffort}
	var queries []*Query
	for i := 0; i < 120; i++ {
		lvl := levels[i%3]
		q := r.submit(lvl, int64(50+i%200)*mb)
		queries = append(queries, q)
		r.clk.Advance(time.Duration(1+(i*7)%9) * time.Second)
	}
	r.clk.Advance(time.Hour)
	for _, q := range queries {
		if q.Status() != StatusFinished {
			t.Fatalf("query %s (%s) stuck at %s", q.ID, q.Level, q.Status())
		}
		sub, start, _ := q.Times()
		pending := start.Sub(sub)
		switch q.Level {
		case billing.Immediate:
			if pending != 0 {
				t.Fatalf("immediate %s waited %v", q.ID, pending)
			}
		case billing.Relaxed:
			if pending > grace {
				t.Fatalf("relaxed %s waited %v > grace %v", q.ID, pending, grace)
			}
		case billing.BestEffort:
			if q.UsedCF() {
				t.Fatalf("best-effort %s used CF", q.ID)
			}
		}
	}
	if fin, failed := r.coord.Counts(); fin != 120 || failed != 0 {
		t.Fatalf("counts = %d finished, %d failed", fin, failed)
	}
}

func TestCFWorkerFailureRetries(t *testing.T) {
	r := newRig(t, 0, Config{CFMaxParts: 2, CFTaskRetries: 3},
		vmsim.Config{SlotsPerVM: 1}, cfsim.Config{FailureProb: 0.3, Seed: 11})
	q := r.submit(billing.Immediate, 600*mb)
	r.clk.Advance(5 * time.Minute)
	if q.Status() != StatusFinished {
		t.Fatalf("query with flaky CF workers: %s (err=%v)", q.Status(), q.Err())
	}
	bills := r.ledger.All()
	if bills[0].Usage.CFInvocations <= 2 {
		t.Fatalf("expected retries to add invocations: %+v", bills[0].Usage)
	}
}

func TestCFTotalFailureFailsQuery(t *testing.T) {
	r := newRig(t, 0, Config{CFMaxParts: 2, CFTaskRetries: 1},
		vmsim.Config{SlotsPerVM: 1}, cfsim.Config{FailureProb: 1.0, Seed: 3})
	q := r.submit(billing.Immediate, 600*mb)
	r.clk.Advance(5 * time.Minute)
	if q.Status() != StatusFailed {
		t.Fatalf("status = %s, want failed", q.Status())
	}
	if q.Err() == nil {
		t.Fatalf("no error on failed query")
	}
	if _, failed := r.coord.Counts(); failed != 1 {
		t.Fatalf("failed count = %d", failed)
	}
	bills := r.ledger.All()
	if bills[0].Status != "failed" || bills[0].Error == "" {
		t.Fatalf("failed bill wrong: %+v", bills[0])
	}
}

func TestBillingLevels(t *testing.T) {
	r := newRig(t, 4, Config{}, vmsim.Config{SlotsPerVM: 4}, cfsim.Config{})
	gb := int64(1e9)
	r.submit(billing.Immediate, 1000*gb) // 1 TB
	r.submit(billing.Relaxed, 1000*gb)
	r.submit(billing.BestEffort, 1000*gb)
	r.clk.Advance(3 * time.Hour)
	sum := r.ledger.Summary()
	if got := sum[billing.Immediate].ListPrice; got != 5.0 {
		t.Fatalf("immediate list price = %f", got)
	}
	if got := sum[billing.Relaxed].ListPrice; got != 2.0 {
		t.Fatalf("relaxed list price = %f", got)
	}
	if got := sum[billing.BestEffort].ListPrice; got != 0.5 {
		t.Fatalf("best-effort list price = %f", got)
	}
}

func TestQueryLookupAndHandles(t *testing.T) {
	r := newRig(t, 1, Config{}, vmsim.Config{}, cfsim.Config{})
	q := r.submit(billing.Immediate, 100*mb)
	got, ok := r.coord.Get(q.ID)
	if !ok || got != q {
		t.Fatalf("Get lost the query")
	}
	if _, ok := r.coord.Get("nope"); ok {
		t.Fatalf("Get found a ghost")
	}
	if len(r.coord.Queries()) != 1 {
		t.Fatalf("Queries() = %d", len(r.coord.Queries()))
	}
	r.clk.Advance(time.Minute)
	select {
	case <-q.Done():
	default:
		t.Fatalf("done channel not closed")
	}
}

func TestGraceTimerCanceledWhenVMFrees(t *testing.T) {
	grace := time.Minute
	r := newRig(t, 1, Config{GracePeriod: grace}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	r.submit(billing.Immediate, 2500*mb) // ~10s
	q := r.submit(billing.Relaxed, 250*mb)
	r.clk.Advance(15 * time.Second) // VM frees; relaxed starts there
	if q.UsedCF() {
		t.Fatalf("relaxed used CF")
	}
	// When grace would have expired, the query must not be double-run.
	r.clk.Advance(2 * time.Minute)
	if q.Status() != StatusFinished {
		t.Fatalf("status = %s", q.Status())
	}
	bills := r.ledger.All()
	if len(bills) != 2 {
		t.Fatalf("bills = %d, want 2 (no double execution)", len(bills))
	}
}
