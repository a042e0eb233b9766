// Package disttest is the distributed correctness harness: it drives the
// paper's experiment queries (the shapes below) through four execution
// tiers and asserts they are indistinguishable — bit-identical rows,
// identical billed bytes-scanned, identical scan statistics:
//
//   - serial: Engine.RunPlan;
//   - in-process parallel: Engine.RunPlanParallel;
//   - hand-driven wire: SplitForCF, one Engine.InvokeTask attempt per task
//     (in-process and in warm worker OS processes, shuffling through the
//     object store), Engine.MergeIntermediates — the primitives with no
//     supervisor and therefore no retries;
//   - served: the query submitted the way pixels-server submits it, to
//     internal/core's scheduler, which routes it to the CF tier and
//     supervises the same task attempts itself (core.runOnCF).
//
// Faults are injected only into the served tier, because that is the only
// supervisor there is: a fault-injecting store wrapper inside the worker
// processes proves the scheduler's retries recover without changing rows,
// statistics or the bill, and the traces it stores keep the shape the perf
// harness folds.
package disttest

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	// Re-executed test binaries become worker processes — multi-process
	// tests spawn workers without a separately built pixels-worker binary.
	if os.Getenv("PIXELS_WORKER_PROCESS") == "1" {
		os.Exit(engine.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	code := m.Run()
	if fixtureDir != "" {
		os.RemoveAll(fixtureDir)
	}
	os.Exit(code)
}

// experimentQueries are the intra-query-parallelism shapes: the partial-agg
// lineitem scan, the fact-dim join with coordinator-side merge, the bounded
// worker top-N, and a DISTINCT aggregate (scan pushdown). The summed
// lineitem columns hold integer-valued doubles and o_totalprice, which does
// not, is only ever MAXed, so partial aggregation is exact at any task
// count and every comparison below is bit-for-bit.
var experimentQueries = []string{
	"SELECT l_returnflag, COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
	"SELECT c_mktsegment, COUNT(*), MAX(o_totalprice) FROM orders, customer WHERE o_custkey = c_custkey GROUP BY c_mktsegment ORDER BY c_mktsegment",
	"SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC, l_orderkey LIMIT 10",
	"SELECT COUNT(DISTINCT l_returnflag), COUNT(*) FROM lineitem WHERE l_quantity > 25",
}

var (
	fixtureOnce sync.Once
	fixtureDir  string
	fixtureEng  *engine.Engine
	fixtureErr  error
)

// fixture loads TPC-H once into a disk store all tests (and their worker
// processes) share. Tests must not mutate the loaded tables.
func fixture(t *testing.T) (*engine.Engine, string) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDir, fixtureErr = os.MkdirTemp("", "disttest-*")
		if fixtureErr != nil {
			return
		}
		var disk *objstore.Disk
		disk, fixtureErr = objstore.NewDisk(fixtureDir)
		if fixtureErr != nil {
			return
		}
		fixtureEng = engine.New(catalog.New(), disk)
		// SF 0.01 with small files: ~6k lineitem rows across six files, so
		// a width-4 run has four tasks and width 8 clamps to six.
		fixtureErr = workload.Load(fixtureEng, "tpch", workload.LoadOptions{SF: 0.01, Seed: 7, RowsPerFile: 1024})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureEng, fixtureDir
}

// processInvoker runs worker attempts in warm worker processes of this
// test binary; they are reaped when the test ends.
func processInvoker(t *testing.T, dir string) *engine.ProcessInvoker {
	p := &engine.ProcessInvoker{
		Argv:     []string{os.Args[0]},
		Env:      []string{"PIXELS_WORKER_PROCESS=1"},
		StoreDir: dir,
	}
	t.Cleanup(p.Close)
	return p
}

// bind plans q afresh (plans are single-use).
func bind(t *testing.T, e *engine.Engine, q string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func runSerial(t *testing.T, e *engine.Engine, q string) *engine.Result {
	t.Helper()
	res, err := e.RunPlan(context.Background(), bind(t, e, q))
	if err != nil {
		t.Fatalf("serial %q: %v", q, err)
	}
	return res
}

func runParallel(t *testing.T, e *engine.Engine, q string, width int) *engine.Result {
	t.Helper()
	res, err := e.RunPlanParallel(context.Background(), bind(t, e, q), width)
	if err != nil {
		t.Fatalf("parallel %q: %v", q, err)
	}
	return res
}

var wireSeq int

// runWire drives q through the CF primitives by hand: SplitForCF into up
// to parts tasks, one InvokeTask attempt per task over inv, then
// MergeIntermediates. The result's Stats are the whole query's — the
// exchange plus every task's scan — as the scheduler would report them.
func runWire(t *testing.T, e *engine.Engine, q string, parts int, inv engine.WorkerInvoker) *engine.Result {
	t.Helper()
	wireSeq++
	ctx := context.Background()
	split, err := e.SplitForCF(bind(t, e, q), fmt.Sprintf("disttest-%d", wireSeq), parts)
	if err != nil {
		t.Fatalf("split %q: %v", q, err)
	}
	interms := make([]catalog.FileMeta, len(split.Tasks))
	var scanned engine.Stats
	for i := range split.Tasks {
		resp, err := e.InvokeTask(ctx, inv, split, i, 0)
		if err != nil {
			t.Fatalf("wire %q task %d: %v", q, i, err)
		}
		interms[i] = resp.Interm
		scanned.Add(resp.Stats)
	}
	res, err := e.MergeIntermediates(ctx, split, interms)
	if err != nil {
		t.Fatalf("wire %q merge: %v", q, err)
	}
	res.Stats.Add(scanned)
	return res
}

// served is one query's outcome on the served tier.
type served struct {
	q     *core.Query
	bill  billing.QueryBill
	trace *obs.SpanData // nil unless submitted traced
}

// submitServed submits q the way pixels-server does — a bound plan handed
// to core.Coordinator over a PlannedExecutor — against a cluster with zero
// VMs, so the Immediate submission spills to the CF tier and the
// scheduler's own retry loop drives the task attempts through inv. It
// waits for the query to settle, successfully or not.
func submitServed(t *testing.T, e *engine.Engine, q string, parts, retries int, inv engine.WorkerInvoker, traced bool) served {
	t.Helper()
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 1}, 0)
	cf := cfsim.NewService(clk, cfsim.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond})
	ledger := billing.NewLedger()
	// CFTaskRetries 0 means "default"; negative means none.
	if retries == 0 {
		retries = -1
	}
	cfg := core.Config{CFMaxParts: parts, CFTaskRetries: retries}
	payload := core.PlanPayload{Node: bind(t, e, q)}
	if traced {
		cfg.TraceStore = obs.NewTraceStore(1)
		payload.Trace = obs.NewTrace("disttest", "query")
	}
	coord := core.NewCoordinator(clk, cfg, cluster, cf, &core.PlannedExecutor{Engine: e, CFInvoker: inv}, ledger)
	qh := coord.Submit(q, billing.Immediate, payload)
	select {
	case <-qh.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("served %q timed out", q)
	}
	if !qh.UsedCF() {
		t.Fatalf("served %q did not run on the CF tier", q)
	}
	bills := ledger.All()
	if len(bills) != 1 || bills[0].QueryID != qh.ID {
		t.Fatalf("served %q: bills %+v", q, bills)
	}
	out := served{q: qh, bill: bills[0]}
	if traced {
		out.trace = cfg.TraceStore.Get(qh.ID)
	}
	return out
}

// runServed is submitServed for a query that must succeed: it returns the
// finished query's result and its ledger bill.
func runServed(t *testing.T, e *engine.Engine, q string, parts, retries int, inv engine.WorkerInvoker) (*engine.Result, billing.QueryBill) {
	t.Helper()
	s := submitServed(t, e, q, parts, retries, inv, false)
	if err := s.q.Err(); err != nil {
		t.Fatalf("served %q: %v", q, err)
	}
	return s.q.Result(), s.bill
}

// expectServedLikeSerial asserts a served CF run is indistinguishable from
// the serial run — rows in order, scan stats, and the bill the customer
// pays — and from a fault-free reference run of the same width (hand-driven
// or served) in every statistic, exchange included.
func expectServedLikeSerial(t *testing.T, label string, serial, ref, served *engine.Result, bill billing.QueryBill) {
	t.Helper()
	expectSameRows(t, label, serial, served)
	expectSameBilling(t, label, serial, served)
	if served.Stats != ref.Stats {
		t.Fatalf("%s: served stats %+v vs fault-free reference %+v", label, served.Stats, ref.Stats)
	}
	want := billing.Default().ListPrice(billing.Immediate, serial.Stats.BytesScanned)
	if bill.BytesScanned != serial.Stats.BytesScanned || bill.ListPrice != want || bill.Status != "finished" {
		t.Fatalf("%s: billed %d bytes $%g (%s), serial scan is %d bytes $%g",
			label, bill.BytesScanned, bill.ListPrice, bill.Status, serial.Stats.BytesScanned, want)
	}
}

// expectSameRows asserts bit-identical result rows.
func expectSameRows(t *testing.T, label string, want, got *engine.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if !want.Rows[i][c].Equal(got.Rows[i][c]) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, got.Rows[i][c], want.Rows[i][c])
			}
		}
	}
}

// expectSameBilling asserts the distributed run billed exactly the serial
// bytes and matched the serial scan statistics; the exchange itself must
// show up only as BytesIntermediate.
func expectSameBilling(t *testing.T, label string, serial, dist *engine.Result) {
	t.Helper()
	if dist.Stats.BytesScanned != serial.Stats.BytesScanned {
		t.Fatalf("%s billed bytes: %d vs serial %d", label, dist.Stats.BytesScanned, serial.Stats.BytesScanned)
	}
	if dist.Stats.RowsFiltered != serial.Stats.RowsFiltered ||
		dist.Stats.RowGroupsPruned != serial.Stats.RowGroupsPruned ||
		dist.Stats.RowsReturned != serial.Stats.RowsReturned {
		t.Fatalf("%s stats: %+v vs serial %+v", label, dist.Stats, serial.Stats)
	}
	if dist.Stats.BytesIntermediate <= 0 {
		t.Fatalf("%s: no intermediate bytes exchanged — did this run multi-process?", label)
	}
}

// TestExperimentQueriesAcrossTiers is the harness headline: for every
// experiment query and width, serial ≡ in-process parallel ≡ hand-driven
// wire ≡ served-through-the-scheduler, in rows, billed bytes and stats; and
// the in-process wire leg (LocalInvoker) is bit-identical in full Stats to
// the subprocess leg, hand-driven and served alike.
func TestExperimentQueriesAcrossTiers(t *testing.T) {
	e, dir := fixture(t)
	proc := processInvoker(t, dir)
	for _, q := range experimentQueries {
		serial := runSerial(t, e, q)
		for _, width := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s @%d", q, width)

			par := runParallel(t, e, q, width)
			expectSameRows(t, label+" parallel", serial, par)
			if par.Stats.BytesScanned != serial.Stats.BytesScanned {
				t.Fatalf("%s parallel billed %d vs serial %d", label, par.Stats.BytesScanned, serial.Stats.BytesScanned)
			}

			local := runWire(t, e, q, width, &engine.LocalInvoker{Engine: e})
			expectSameRows(t, label+" local-invoker", serial, local)
			expectSameBilling(t, label+" local-invoker", serial, local)

			dist := runWire(t, e, q, width, proc)
			expectSameRows(t, label+" process", serial, dist)
			expectSameBilling(t, label+" process", serial, dist)
			if dist.Stats != local.Stats {
				t.Fatalf("%s: process stats %+v vs local stats %+v", label, dist.Stats, local.Stats)
			}

			served, bill := runServed(t, e, q, width, 0, &engine.LocalInvoker{Engine: e})
			expectServedLikeSerial(t, label+" served local-invoker", serial, local, served, bill)
			served, bill = runServed(t, e, q, width, 0, proc)
			expectServedLikeSerial(t, label+" served process", serial, dist, served, bill)
		}
	}
	expectNoIntermediates(t, e)
}

// TestUnsplittablePlanAcrossTiers: a plan with nothing to partition (a
// scan over a table with no files) has no wire tier — SplitForCF declines
// it — but the served tier must still answer it exactly like serial and
// parallel when the scheduler picks CF, running it whole on the
// coordinator.
func TestUnsplittablePlanAcrossTiers(t *testing.T) {
	e := engine.New(catalog.New(), objstore.NewMemory())
	for _, ddl := range []string{"CREATE DATABASE tpch", "CREATE TABLE empty (a BIGINT)"} {
		if _, err := e.Execute(context.Background(), "tpch", ddl); err != nil {
			t.Fatal(err)
		}
	}
	q := "SELECT COUNT(*) FROM empty"
	if _, err := e.SplitForCF(bind(t, e, q), "unsplittable", 4); err == nil {
		t.Fatal("SplitForCF partitioned a table with no files")
	}
	serial := runSerial(t, e, q)
	expectSameRows(t, q+" parallel", serial, runParallel(t, e, q, 4))
	served, bill := runServed(t, e, q, 4, 0, nil)
	expectSameRows(t, q+" served", serial, served)
	if served.Stats != serial.Stats || bill.BytesScanned != serial.Stats.BytesScanned || bill.Usage.CFInvocations != 0 {
		t.Fatalf("served stats %+v bill %+v, serial %+v with no CF invocation", served.Stats, bill, serial.Stats)
	}
	expectNoIntermediates(t, e)
}
