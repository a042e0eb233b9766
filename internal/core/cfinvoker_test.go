package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// rejectFirstInvoker is a WorkerInvoker that fails every task's first
// attempt with a worker-reported error, then delegates to the in-process
// invoker — exercising the scheduler's CF retry loop through the invoker
// seam.
type rejectFirstInvoker struct {
	engine *engine.Engine

	mu          sync.Mutex
	attempts    map[int][]int // task -> attempt numbers seen
	failForever map[int]bool  // tasks whose every attempt is rejected
}

func (f *rejectFirstInvoker) Invoke(ctx context.Context, req *engine.WorkerRequest) (*engine.WorkerResponse, error) {
	f.mu.Lock()
	f.attempts[req.Task] = append(f.attempts[req.Task], req.Attempt)
	doomed := f.failForever[req.Task]
	f.mu.Unlock()
	if req.Attempt == 0 || doomed {
		return &engine.WorkerResponse{Error: "injected: worker lost"}, nil
	}
	return (&engine.LocalInvoker{Engine: f.engine}).Invoke(ctx, req)
}

// TestCFInvokerSeamWithSchedulerRetries: a query routed to the CF tier
// runs its worker tasks through the invoker seam; when every task's first
// attempt fails, the coordinator's retry loop relaunches them with fresh
// attempt numbers and the query completes with the serial result and the
// serial bill.
func TestCFInvokerSeamWithSchedulerRetries(t *testing.T) {
	eng, q, node := cfFixture(t)
	ref, err := eng.RunPlan(context.Background(), node)
	if err != nil {
		t.Fatal(err)
	}

	flaky := &rejectFirstInvoker{engine: eng, attempts: map[int][]int{}}
	coord, ledger := cfOnlyCoordinator(eng, flaky)
	qh := submitAndWait(t, coord, q, node)
	if err := qh.Err(); err != nil {
		t.Fatal(err)
	}
	if !qh.UsedCF() {
		t.Fatal("query did not use the CF tier")
	}
	if fmt.Sprint(qh.Result().Rows) != fmt.Sprint(ref.Rows) {
		t.Fatalf("CF rows diverged:\n%v\nvs\n%v", qh.Result().Rows, ref.Rows)
	}

	flaky.mu.Lock()
	for task, seen := range flaky.attempts {
		if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
			t.Fatalf("task %d attempts = %v, want [0 1]", task, seen)
		}
	}
	nTasks := len(flaky.attempts)
	flaky.mu.Unlock()
	if nTasks == 0 {
		t.Fatal("invoker never invoked")
	}

	// Failed first attempts contribute zero stats: the bill equals the
	// serial scan exactly.
	var found bool
	for _, b := range ledger.All() {
		if b.QueryID == qh.ID {
			found = true
			if b.BytesScanned != ref.Stats.BytesScanned {
				t.Fatalf("billed %d bytes, serial %d — failed attempts double-billed", b.BytesScanned, ref.Stats.BytesScanned)
			}
		}
	}
	if !found {
		t.Fatal("no bill written")
	}

	// The retried attempts' orphans and the winners are all swept.
	infos, err := eng.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates left behind: %v", infos)
	}
}

// TestFailedCFQueryBillsNothingAndLeavesNothing: one task of four fails on
// every attempt while its siblings succeed. The query fails — and like a
// failed VM run it carries zero stats, a zero-byte bill, and nothing under
// its intermediate prefix, even though three tasks scanned and wrote.
func TestFailedCFQueryBillsNothingAndLeavesNothing(t *testing.T) {
	eng, q, node := cfFixture(t)
	doomed := &rejectFirstInvoker{engine: eng, attempts: map[int][]int{}, failForever: map[int]bool{2: true}}
	coord, ledger := cfOnlyCoordinator(eng, doomed)
	qh := submitAndWait(t, coord, q, node)

	if qh.Status() != StatusFailed || qh.Err() == nil {
		t.Fatalf("status %s err %v, want failed", qh.Status(), qh.Err())
	}
	doomed.mu.Lock()
	if len(doomed.attempts) != 4 {
		t.Fatalf("%d tasks invoked, want 4", len(doomed.attempts))
	}
	if got := fmt.Sprint(doomed.attempts[2]); got != "[0 1]" {
		t.Fatalf("doomed task attempts = %s, want [0 1]", got)
	}
	doomed.mu.Unlock()

	bills := ledger.All()
	if len(bills) != 1 || bills[0].QueryID != qh.ID {
		t.Fatalf("bills = %+v", bills)
	}
	if b := bills[0]; b.Status != "failed" || b.BytesScanned != 0 || b.ListPrice != 0 {
		t.Fatalf("failed query billed: status %s, %d bytes, $%g", b.Status, b.BytesScanned, b.ListPrice)
	}
	infos, err := eng.Store().List(objstore.IntermediatePrefix(qh.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("failed query left intermediates behind: %v", infos)
	}
}

// cfFixture loads a small TPC-H and binds a partial-agg query over it.
func cfFixture(t *testing.T) (*engine.Engine, string, plan.Node) {
	t.Helper()
	eng := engine.New(catalog.New(), objstore.NewMemory())
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.005, Seed: 5, RowsPerFile: 500}); err != nil {
		t.Fatal(err)
	}
	q := "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := eng.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return eng, q, node
}

// cfOnlyCoordinator schedules onto zero VMs, so an Immediate submission
// goes straight to the CF tier: 4 tasks, one retry each.
func cfOnlyCoordinator(eng *engine.Engine, inv engine.WorkerInvoker) (*Coordinator, *billing.Ledger) {
	// Real clock: the real executor completes work asynchronously, so the
	// cfsim ready timers must fire without manual Advance calls.
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 1}, 0)
	cf := cfsim.NewService(clk, cfsim.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond})
	ledger := billing.NewLedger()
	return NewCoordinator(clk, Config{CFMaxParts: 4, CFTaskRetries: 1}, cluster, cf,
		&PlannedExecutor{Engine: eng, CFInvoker: inv}, ledger), ledger
}

func submitAndWait(t *testing.T, coord *Coordinator, q string, node plan.Node) *Query {
	t.Helper()
	qh := coord.Submit(q, billing.Immediate, PlanPayload{Node: node})
	select {
	case <-qh.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("CF query timed out")
	}
	return qh
}
