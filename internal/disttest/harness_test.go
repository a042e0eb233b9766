// Package disttest is the distributed correctness harness: it drives the
// paper's experiment queries (the shapes below) through every execution
// tier — serial, in-process parallel, multi-process with one worker process
// per task shuffling through the object store, and the served path where
// internal/core's scheduler routes the query to the CF tier and drives the
// same task attempts itself — and asserts the tiers are indistinguishable: bit-identical rows, identical billed
// bytes-scanned, identical scan statistics. A fault-injecting store wrapper
// then proves the multi-process tier recovers from worker failures and
// stragglers without changing any of that.
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
// worker top-N, and a DISTINCT aggregate (scan pushdown). All numeric
// columns in the generated data hold integer-valued doubles, so partial
// aggregation is exact and every comparison below is bit-for-bit.
var experimentQueries = []string{
	"SELECT l_returnflag, COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
	"SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) FROM orders, customer WHERE o_custkey = c_custkey GROUP BY c_mktsegment ORDER BY c_mktsegment",
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
		// SF 0.01 with small files: ~60k lineitem rows across enough files
		// to keep width-8 runs honest.
		fixtureErr = workload.Load(fixtureEng, "tpch", workload.LoadOptions{SF: 0.01, Seed: 7, RowsPerFile: 8192})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureEng, fixtureDir
}

func processInvoker(dir string) *engine.ProcessInvoker {
	return &engine.ProcessInvoker{
		Argv:     []string{os.Args[0]},
		Env:      []string{"PIXELS_WORKER_PROCESS=1"},
		StoreDir: dir,
	}
}

func runSerial(t *testing.T, e *engine.Engine, q string) *engine.Result {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlan(context.Background(), node)
	if err != nil {
		t.Fatalf("serial %q: %v", q, err)
	}
	return res
}

func runParallel(t *testing.T, e *engine.Engine, q string, width int) *engine.Result {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanParallel(context.Background(), node, width)
	if err != nil {
		t.Fatalf("parallel %q: %v", q, err)
	}
	return res
}

var distSeq int

func runDistributed(t *testing.T, e *engine.Engine, q string, opts engine.DistOptions) *engine.Result {
	t.Helper()
	distSeq++
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanDistributed(context.Background(), node, fmt.Sprintf("disttest-%d", distSeq), opts)
	if err != nil {
		t.Fatalf("distributed %q: %v", q, err)
	}
	return res
}

// runServed submits q the way pixels-server does — a bound plan handed to
// core.Coordinator over a PlannedExecutor — against a cluster with zero
// VMs, so the Immediate submission spills to the CF tier and the
// scheduler's own retry loop drives the task attempts through inv. It
// returns the finished query's result and its ledger bill.
func runServed(t *testing.T, e *engine.Engine, q string, parts, retries int, inv engine.WorkerInvoker) (*engine.Result, billing.QueryBill) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("tpch", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 1}, 0)
	cf := cfsim.NewService(clk, cfsim.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond})
	ledger := billing.NewLedger()
	// CFTaskRetries 0 means "default"; negative means none.
	if retries == 0 {
		retries = -1
	}
	coord := core.NewCoordinator(clk, core.Config{CFMaxParts: parts, CFTaskRetries: retries}, cluster, cf,
		&core.PlannedExecutor{Engine: e, CFInvoker: inv}, ledger)
	qh := coord.Submit(q, billing.Immediate, core.PlanPayload{Node: node})
	select {
	case <-qh.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("served %q timed out", q)
	}
	if err := qh.Err(); err != nil {
		t.Fatalf("served %q: %v", q, err)
	}
	if !qh.UsedCF() {
		t.Fatalf("served %q did not run on the CF tier", q)
	}
	bills := ledger.All()
	if len(bills) != 1 || bills[0].QueryID != qh.ID {
		t.Fatalf("served %q: bills %+v", q, bills)
	}
	return qh.Result(), bills[0]
}

// expectServedLikeSerial asserts a served CF run is indistinguishable from
// the serial run — rows in order, scan stats, and the bill the customer
// pays — and from the engine-driven distributed run of the same width in
// every statistic, exchange included.
func expectServedLikeSerial(t *testing.T, label string, serial, dist, served *engine.Result, bill billing.QueryBill) {
	t.Helper()
	expectSameRows(t, label, serial, served)
	expectSameBilling(t, label, serial, served)
	if served.Stats != dist.Stats {
		t.Fatalf("%s: served stats %+v vs engine-distributed %+v", label, served.Stats, dist.Stats)
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
// experiment query and width, serial ≡ in-process parallel ≡ multi-process
// ≡ served-through-the-scheduler, in rows, billed bytes and stats; and the
// in-process wire leg (LocalInvoker) is bit-identical in full Stats to the
// subprocess leg, engine-driven and served alike.
func TestExperimentQueriesAcrossTiers(t *testing.T) {
	e, dir := fixture(t)
	proc := processInvoker(dir)
	for _, q := range experimentQueries {
		serial := runSerial(t, e, q)
		for _, width := range []int{1, 2, 8} {
			label := fmt.Sprintf("%s @%d", q, width)

			par := runParallel(t, e, q, width)
			expectSameRows(t, label+" parallel", serial, par)
			if par.Stats.BytesScanned != serial.Stats.BytesScanned {
				t.Fatalf("%s parallel billed %d vs serial %d", label, par.Stats.BytesScanned, serial.Stats.BytesScanned)
			}

			local := runDistributed(t, e, q, engine.DistOptions{Parts: width, Invoker: &engine.LocalInvoker{Engine: e}})
			expectSameRows(t, label+" local-invoker", serial, local)
			expectSameBilling(t, label+" local-invoker", serial, local)

			dist := runDistributed(t, e, q, engine.DistOptions{Parts: width, Invoker: proc})
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
	infos, err := e.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates left behind: %v", infos)
	}
}
