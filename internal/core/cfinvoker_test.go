package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/obs"
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

	// The fault-free served run is the reference for everything a retry
	// must not change — exchange statistics included.
	cleanCoord, _ := cfOnlyCoordinator(eng, nil, Config{})
	clean := submitAndWait(t, cleanCoord, q, bind(t, eng, q))
	if err := clean.Err(); err != nil {
		t.Fatal(err)
	}

	flaky := &rejectFirstInvoker{engine: eng, attempts: map[int][]int{}}
	coord, ledger := cfOnlyCoordinator(eng, flaky, Config{})
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
	if qh.Result().Stats != clean.Result().Stats {
		t.Fatalf("retried run stats %+v differ from fault-free run %+v — retries double-counted", qh.Result().Stats, clean.Result().Stats)
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
	coord, ledger := cfOnlyCoordinator(eng, doomed, Config{})
	qh := submitAndWait(t, coord, q, node)

	if qh.Status() != StatusFailed || qh.Err() == nil {
		t.Fatalf("status %s err %v, want failed", qh.Status(), qh.Err())
	}
	// The query reports the doomed worker's own error, attempt included —
	// the root cause, not a generic "CF failed".
	if msg := qh.Err().Error(); !strings.Contains(msg, "worker 2 attempt 1") || !strings.Contains(msg, "injected: worker lost") {
		t.Fatalf("error does not carry the root cause: %v", qh.Err())
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
	return eng, q, bind(t, eng, q)
}

// bind parses and plans q.
func bind(t *testing.T, eng *engine.Engine, q string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := eng.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// cfOnlyCoordinator schedules onto zero VMs, so an Immediate submission
// goes straight to the CF tier: 4 tasks, one retry each. A nil inv is the
// executor's default, the in-process LocalInvoker; cfg carries whatever
// else a test needs (a TraceStore).
func cfOnlyCoordinator(eng *engine.Engine, inv engine.WorkerInvoker, cfg Config) (*Coordinator, *billing.Ledger) {
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 1}, 0)
	cf := cfsim.NewService(clk, cfsim.Config{})
	ledger := billing.NewLedger()
	cfg.CFMaxParts, cfg.CFTaskRetries = 4, 1
	return NewCoordinator(clk, cfg, cluster, cf,
		&PlannedExecutor{Engine: eng, CFInvoker: inv}, ledger), ledger
}

func submitAndWait(t *testing.T, coord *Coordinator, q string, node plan.Node) *Query {
	t.Helper()
	return submitTraced(t, coord, q, node, nil)
}

// submitTraced is submitAndWait with the query's span tree collected into
// tr (nil = tracing off).
func submitTraced(t *testing.T, coord *Coordinator, q string, node plan.Node, tr *obs.Trace) *Query {
	t.Helper()
	qh := coord.Submit(q, billing.Immediate, PlanPayload{Node: node, Trace: tr})
	select {
	case <-qh.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("CF query timed out")
	}
	return qh
}

// TestServedCFUnsplittablePlanRunsWhole: a plan SplitForCF cannot partition
// (here a scan over a table with no files) must not fail just because the
// scheduler chose the CF tier. It runs whole on the coordinator: same row,
// stats and bill as the serial run, the tier still reported as CF, no CF
// invocation metered and nothing written under the intermediate root.
func TestServedCFUnsplittablePlanRunsWhole(t *testing.T) {
	eng, _, _ := cfFixture(t)
	if _, err := eng.Execute(context.Background(), "tpch", "CREATE TABLE empty (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*) FROM empty"
	ref, err := eng.RunPlan(context.Background(), bind(t, eng, q))
	if err != nil {
		t.Fatal(err)
	}

	coord, ledger := cfOnlyCoordinator(eng, nil, Config{})
	qh := submitAndWait(t, coord, q, bind(t, eng, q))
	if qh.Status() != StatusFinished || qh.Err() != nil {
		t.Fatalf("status %s err %v, want finished", qh.Status(), qh.Err())
	}
	if !qh.UsedCF() {
		t.Fatal("UsedCF must report the tier the scheduler chose")
	}
	res := qh.Result()
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("rows = %v, want one row 0", res.Rows)
	}
	if res.Stats != ref.Stats {
		t.Fatalf("stats %+v differ from the serial run's %+v", res.Stats, ref.Stats)
	}
	bills := ledger.All()
	if len(bills) != 1 || bills[0].QueryID != qh.ID {
		t.Fatalf("bills = %+v", bills)
	}
	b := bills[0]
	if b.Status != "finished" || b.BytesScanned != ref.Stats.BytesScanned || !b.UsedCF {
		t.Fatalf("bill %+v, serial scan is %d bytes", b, ref.Stats.BytesScanned)
	}
	if b.Usage.CFInvocations != 0 || b.Usage.CFGBSeconds != 0 || b.Usage.S3Puts != 0 {
		t.Fatalf("no worker ran, yet usage = %+v", b.Usage)
	}
	infos, err := eng.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates written: %v", infos)
	}
}

// cfTaskSpans returns the cf-task:<task>.a<attempt> spans of a trace.
func cfTaskSpans(data *obs.SpanData, task, attempt int) []*obs.SpanData {
	return obs.FindSpans(data, fmt.Sprintf("cf-task:%d.a%d", task, attempt))
}

// TestServedCFTraceShape pins the span tree a served CF query produces —
// the shape benchmark/trace.go folds into engine.task_ms_p50,
// engine.attempts_per_task and the cf_spill stage table: under the query
// root, one cf-task:N.a0 per task with the worker's fragment:tN.a0 subtree
// adopted beneath it, and one merge.
func TestServedCFTraceShape(t *testing.T) {
	eng, q, node := cfFixture(t)
	traces := obs.NewTraceStore(4)
	coord, _ := cfOnlyCoordinator(eng, nil, Config{TraceStore: traces})
	retriesBefore := obs.DistTaskRetriesTotal.Value()
	qh := submitTraced(t, coord, q, node, obs.NewTrace("trace-shape", "query"))
	if err := qh.Err(); err != nil {
		t.Fatal(err)
	}
	data := traces.Get(qh.ID)
	if err := obs.CheckWellFormed(data); err != nil {
		t.Fatal(err)
	}
	if data.Attrs["status"] != "finished" || data.Attrs["used_cf"] != true {
		t.Fatalf("root attrs = %v", data.Attrs)
	}
	const tasks = 4
	for i := 0; i < tasks; i++ {
		spans := cfTaskSpans(data, i, 0)
		if len(spans) != 1 {
			t.Fatalf("cf-task:%d.a0 spans = %d, want 1", i, len(spans))
		}
		if spans[0].Attrs["error"] != nil {
			t.Fatalf("clean attempt carries an error: %v", spans[0].Attrs)
		}
		frag := fmt.Sprintf("fragment:t%d.a0", i)
		if len(spans[0].Children) != 1 || spans[0].Children[0].Name != frag {
			t.Fatalf("cf-task:%d.a0 children = %+v, want the adopted %s", i, spans[0].Children, frag)
		}
		if len(obs.FindSpans(spans[0], "op:agg")) == 0 {
			t.Fatalf("%s shipped no operator spans", frag)
		}
	}
	if got := len(cfTaskSpans(data, tasks, 0)) + len(cfTaskSpans(data, 0, 1)); got != 0 {
		t.Fatalf("%d spans beyond one first attempt per task", got)
	}
	if got := len(obs.FindSpans(data, "merge")); got != 1 {
		t.Fatalf("merge spans = %d, want 1", got)
	}
	if got := obs.DistTaskRetriesTotal.Value() - retriesBefore; got != 0 {
		t.Fatalf("retry counter advanced by %d on a fault-free run", got)
	}
}

// TestServedCFTraceRetry fails every task's first attempt: each task keeps
// its failed cf-task:N.a0 span, now carrying the error, next to the winning
// cf-task:N.a1 with the fragment subtree, and the retry counter advances by
// exactly the number of retried tasks.
func TestServedCFTraceRetry(t *testing.T) {
	eng, q, node := cfFixture(t)
	traces := obs.NewTraceStore(4)
	flaky := &rejectFirstInvoker{engine: eng, attempts: map[int][]int{}}
	coord, _ := cfOnlyCoordinator(eng, flaky, Config{TraceStore: traces})
	retriesBefore := obs.DistTaskRetriesTotal.Value()
	qh := submitTraced(t, coord, q, node, obs.NewTrace("trace-retry", "query"))
	if err := qh.Err(); err != nil {
		t.Fatal(err)
	}
	data := traces.Get(qh.ID)
	if err := obs.CheckWellFormed(data); err != nil {
		t.Fatal(err)
	}
	const tasks = 4
	for i := 0; i < tasks; i++ {
		failed, won := cfTaskSpans(data, i, 0), cfTaskSpans(data, i, 1)
		if len(failed) != 1 || len(won) != 1 {
			t.Fatalf("task %d: %d a0 and %d a1 spans, want one each", i, len(failed), len(won))
		}
		if msg, _ := failed[0].Attrs["error"].(string); !strings.Contains(msg, "injected: worker lost") {
			t.Fatalf("cf-task:%d.a0 error attr = %v", i, failed[0].Attrs["error"])
		}
		if len(failed[0].Children) != 0 {
			t.Fatalf("failed attempt adopted spans: %+v", failed[0].Children)
		}
		if won[0].Attrs["error"] != nil || len(obs.FindSpans(won[0], fmt.Sprintf("fragment:t%d.a1", i))) != 1 {
			t.Fatalf("cf-task:%d.a1 = %+v, want a clean attempt with its fragment", i, won[0])
		}
	}
	if got := len(obs.FindSpans(data, "merge")); got != 1 {
		t.Fatalf("merge spans = %d, want 1", got)
	}
	if got := obs.DistTaskRetriesTotal.Value() - retriesBefore; got != tasks {
		t.Fatalf("retry counter advanced by %d, want %d (one per retried task)", got, tasks)
	}
}

// TestServedCFTraceRetryExhaustion: a query whose task exhausts its retries
// still stores a well-formed trace — status failed, both of the doomed
// task's attempts carrying the error, and no merge.
func TestServedCFTraceRetryExhaustion(t *testing.T) {
	eng, q, node := cfFixture(t)
	traces := obs.NewTraceStore(4)
	doomed := &rejectFirstInvoker{engine: eng, attempts: map[int][]int{}, failForever: map[int]bool{2: true}}
	coord, _ := cfOnlyCoordinator(eng, doomed, Config{TraceStore: traces})
	qh := submitTraced(t, coord, q, node, obs.NewTrace("trace-exhaust", "query"))
	if qh.Status() != StatusFailed {
		t.Fatalf("status %s, want failed", qh.Status())
	}
	data := traces.Get(qh.ID)
	if err := obs.CheckWellFormed(data); err != nil {
		t.Fatal(err)
	}
	if data.Attrs["status"] != "failed" || data.Attrs["bytes_scanned"] != int64(0) {
		t.Fatalf("root attrs = %v, want status=failed and nothing billed", data.Attrs)
	}
	for attempt := 0; attempt < 2; attempt++ {
		spans := cfTaskSpans(data, 2, attempt)
		if len(spans) != 1 || spans[0].Attrs["error"] == nil {
			t.Fatalf("cf-task:2.a%d = %+v, want one span carrying the error", attempt, spans)
		}
	}
	if got := len(cfTaskSpans(data, 2, 2)); got != 0 {
		t.Fatalf("%d attempts past the retry budget", got)
	}
	if got := len(obs.FindSpans(data, "merge")); got != 0 {
		t.Fatalf("failed query merged (%d merge spans)", got)
	}
}
