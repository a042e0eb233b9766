package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/sql"
)

// workerEnvMarker routes a re-executed test binary into WorkerMain, so
// multi-process tests spawn real worker processes without building the
// pixels-worker binary first.
const workerEnvMarker = "PIXELS_WORKER_PROCESS"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnvMarker) == "1" {
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// newProcessInvoker runs worker attempts as subprocesses of this test
// binary against the disk store rooted at dir.
func newProcessInvoker(dir string) *ProcessInvoker {
	return &ProcessInvoker{
		Argv:     []string{os.Args[0]},
		Env:      []string{workerEnvMarker + "=1"},
		StoreDir: dir,
	}
}

// newDiskEngine is the partitioned fixture over a disk store, which worker
// processes can open independently.
func newDiskEngine(t *testing.T, files, rowsPerFile int) (*Engine, string) {
	t.Helper()
	dir := t.TempDir()
	disk, err := objstore.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return newPartitionedEngineOn(t, disk, files, rowsPerFile), dir
}

var distSeq int

func runDist(t *testing.T, e *Engine, q string, opts DistOptions) *Result {
	t.Helper()
	distSeq++
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanDistributed(context.Background(), node, fmt.Sprintf("dist-%d", distSeq), opts)
	if err != nil {
		t.Fatalf("distributed %q: %v", q, err)
	}
	return res
}

// expectDistMatchesSerial asserts the distributed invariants against a
// serial reference: bit-identical rows and identical billing-relevant
// stats. The exchange itself legitimately adds BytesIntermediate plus the
// RowsScanned/RowGroupsRead of reading the intermediates back, so those
// compare by construction, not equality.
func expectDistMatchesSerial(t *testing.T, q string, serial, dist *Result) {
	t.Helper()
	if len(dist.Rows) != len(serial.Rows) {
		t.Fatalf("%q: %d rows distributed vs %d serial", q, len(dist.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		for c := range serial.Rows[i] {
			if !serial.Rows[i][c].Equal(dist.Rows[i][c]) {
				t.Fatalf("%q row %d col %d: distributed %v vs serial %v", q, i, c, dist.Rows[i][c], serial.Rows[i][c])
			}
		}
	}
	if dist.Stats.BytesScanned != serial.Stats.BytesScanned {
		t.Fatalf("%q billed bytes: distributed %d vs serial %d", q, dist.Stats.BytesScanned, serial.Stats.BytesScanned)
	}
	if dist.Stats.RowsFiltered != serial.Stats.RowsFiltered ||
		dist.Stats.RowGroupsPruned != serial.Stats.RowGroupsPruned ||
		dist.Stats.ColumnChunksSkipped != serial.Stats.ColumnChunksSkipped {
		t.Fatalf("%q scan stats: distributed %+v vs serial %+v", q, dist.Stats, serial.Stats)
	}
	if dist.Stats.RowsReturned != serial.Stats.RowsReturned {
		t.Fatalf("%q rows returned: distributed %d vs serial %d", q, dist.Stats.RowsReturned, serial.Stats.RowsReturned)
	}
	if dist.Stats.BytesIntermediate <= 0 {
		t.Fatalf("%q: multi-process run exchanged no intermediate bytes", q)
	}
}

func serialResult(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlan(context.Background(), node)
	if err != nil {
		t.Fatalf("serial %q: %v", q, err)
	}
	return res
}

// TestDistributedMatchesSerial runs the parallel battery through the
// multi-process coordinator at several widths: subprocess workers, store
// shuffle, merge — asserting serial-identical rows and billed bytes, and
// that the in-process LocalInvoker leg (same wire round trip, no process
// boundary) produces bit-identical stats to the subprocess leg.
func TestDistributedMatchesSerial(t *testing.T) {
	e, dir := newDiskEngine(t, 8, 600)
	proc := newProcessInvoker(dir)
	for _, q := range parallelQueries {
		serial := serialResult(t, e, q)
		for _, width := range []int{1, 2, 8} {
			local := runDist(t, e, q, DistOptions{Parts: width, Invoker: &LocalInvoker{Engine: e}})
			expectDistMatchesSerial(t, fmt.Sprintf("%s @%d local", q, width), serial, local)

			dist := runDist(t, e, q, DistOptions{Parts: width, Invoker: proc})
			expectDistMatchesSerial(t, fmt.Sprintf("%s @%d proc", q, width), serial, dist)
			if dist.Stats != local.Stats {
				t.Fatalf("%q @%d: process stats %+v vs local stats %+v", q, width, dist.Stats, local.Stats)
			}
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

// TestDistributedWorkerTopN pins that ORDER BY + LIMIT runs as a worker
// top-N in the distributed path: each worker ships at most LIMIT+OFFSET
// sorted rows and the coordinator k-way-merges the intermediates.
func TestDistributedWorkerTopN(t *testing.T) {
	e, dir := newDiskEngine(t, 6, 500)
	q := "SELECT f_key, f_val FROM fact WHERE f_val > 100 ORDER BY f_val DESC, f_key LIMIT 5 OFFSET 2"
	serial := serialResult(t, e, q)
	dist := runDist(t, e, q, DistOptions{Parts: 6, Invoker: newProcessInvoker(dir)})
	expectDistMatchesSerial(t, q, serial, dist)
	// 6 workers × ≤7 rows × (8B key + 8B val + footer) stays far under one
	// base file: the bounded top-N actually bounded the exchange.
	if dist.Stats.BytesIntermediate >= dist.Stats.BytesScanned {
		t.Fatalf("top-N exchanged %d intermediate bytes vs %d scanned", dist.Stats.BytesIntermediate, dist.Stats.BytesScanned)
	}
}

// flakyInvoker fails every store operation of chosen attempts through a
// worker-side FaultStore and records the injected-fault counters, proving
// recovery was exercised rather than silently skipped.
type flakyInvoker struct {
	engine *Engine
	// failAttempts maps attempt numbers to fail; other attempts run clean.
	failAttempts map[int]bool

	mu     sync.Mutex
	faults []*objstore.FaultStore
}

func (f *flakyInvoker) Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	if !f.failAttempts[req.Attempt] {
		return (&LocalInvoker{Engine: f.engine}).Invoke(ctx, req)
	}
	fs := objstore.NewFaultStore(f.engine.Store(), objstore.FaultConfig{FailFirst: 1 << 30})
	f.mu.Lock()
	f.faults = append(f.faults, fs)
	f.mu.Unlock()
	return (&LocalInvoker{Engine: f.engine, Store: fs}).Invoke(ctx, req)
}

func (f *flakyInvoker) injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, fs := range f.faults {
		n += fs.Stats().InjectedErrors
	}
	return n
}

// TestDistributedRetryBillsOnce: every task's first attempt fails with
// injected store errors; retries succeed. The recovered run must bill
// exactly the bytes of a fault-free run — failed attempts contribute zero
// stats, and only the winning attempt of each task is accounted.
func TestDistributedRetryBillsOnce(t *testing.T) {
	e, _ := newDiskEngine(t, 6, 500)
	q := "SELECT f_cat, COUNT(*), SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat"
	serial := serialResult(t, e, q)
	clean := runDist(t, e, q, DistOptions{Parts: 3, Invoker: &LocalInvoker{Engine: e}})

	flaky := &flakyInvoker{engine: e, failAttempts: map[int]bool{0: true}}
	recovered := runDist(t, e, q, DistOptions{Parts: 3, Invoker: flaky, Retries: 2})

	if flaky.injected() == 0 {
		t.Fatal("fault injection never fired — the test proved nothing")
	}
	expectDistMatchesSerial(t, q, serial, recovered)
	if recovered.Stats != clean.Stats {
		t.Fatalf("retried run stats %+v differ from fault-free run %+v — retries double-billed", recovered.Stats, clean.Stats)
	}
	infos, err := e.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("orphan intermediates after retries: %v", infos)
	}
}

// TestDistributedRetryBillsOnceProcess is the same invariant across a real
// process boundary: attempt 0 gets a fault plan shipped in its request
// (worker-side FaultStore), attempt 1 runs clean.
func TestDistributedRetryBillsOnceProcess(t *testing.T) {
	e, dir := newDiskEngine(t, 6, 500)
	q := "SELECT COUNT(*), SUM(f_val), AVG(f_val) FROM fact WHERE f_val > 50"
	serial := serialResult(t, e, q)
	clean := runDist(t, e, q, DistOptions{Parts: 3, Invoker: newProcessInvoker(dir)})

	proc := newProcessInvoker(dir)
	proc.FaultFor = func(req *WorkerRequest) *objstore.FaultConfig {
		if req.Attempt == 0 {
			// Every store op fails: attempt 0 cannot succeed, so a passing
			// query proves a retry ran inside a fresh worker process.
			return &objstore.FaultConfig{FailFirst: 1 << 30}
		}
		return nil
	}
	recovered := runDist(t, e, q, DistOptions{Parts: 3, Invoker: proc, Retries: 1})
	expectDistMatchesSerial(t, q, serial, recovered)
	if recovered.Stats != clean.Stats {
		t.Fatalf("process-retried stats %+v differ from fault-free %+v", recovered.Stats, clean.Stats)
	}
}

// TestDistributedTornReadFailsLoudly: a torn intermediate read (bit-flipped
// tail, correct length) must surface as an error through the pixfile CRC
// machinery — never as silently wrong rows.
func TestDistributedTornReadFailsLoudly(t *testing.T) {
	e, _ := newDiskEngine(t, 4, 400)
	// Tear reads of intermediates on the coordinator's merge side.
	torn := objstore.NewFaultStore(e.Store(), objstore.FaultConfig{
		TornFirst: 1,
		Ops:       []string{"GetRange"},
		Prefix:    objstore.IntermediateRoot,
	})
	te := New(e.Catalog(), torn)

	stmt, _ := sql.Parse("SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat")
	node, err := te.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	_, err = te.RunPlanDistributed(context.Background(), node, "torn-1", DistOptions{
		Parts: 4, Invoker: &LocalInvoker{Engine: te},
	})
	if err == nil {
		t.Fatal("torn intermediate read produced a result instead of an error")
	}
	if st := torn.Stats(); st.TornReads == 0 {
		t.Fatal("no torn read was injected — the test proved nothing")
	}
}

// slowInvoker delays chosen attempts until released (or context death),
// simulating a straggling worker.
type slowInvoker struct {
	engine  *Engine
	stall   map[int]bool // task -> stall its attempt 0
	release chan struct{}

	mu       sync.Mutex
	attempts []int // attempt numbers observed, in arrival order
}

func (s *slowInvoker) Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	s.mu.Lock()
	s.attempts = append(s.attempts, req.Attempt)
	s.mu.Unlock()
	if req.Attempt == 0 && s.stall[req.Task] {
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return (&LocalInvoker{Engine: s.engine}).Invoke(ctx, req)
}

// TestDistributedSpeculativeDuplicate: a straggling task gets a duplicate
// attempt after SpeculativeAfter; the duplicate wins, the straggler is
// cancelled, and exactly one attempt's stats are counted.
func TestDistributedSpeculativeDuplicate(t *testing.T) {
	e, _ := newDiskEngine(t, 6, 500)
	q := "SELECT f_dim, COUNT(*) FROM fact GROUP BY f_dim ORDER BY f_dim"
	serial := serialResult(t, e, q)
	clean := runDist(t, e, q, DistOptions{Parts: 3, Invoker: &LocalInvoker{Engine: e}})

	slow := &slowInvoker{engine: e, stall: map[int]bool{1: true}, release: make(chan struct{})}
	defer close(slow.release)
	res := runDist(t, e, q, DistOptions{
		Parts: 3, Invoker: slow, SpeculativeAfter: 20 * time.Millisecond,
	})
	expectDistMatchesSerial(t, q, serial, res)
	if res.Stats != clean.Stats {
		t.Fatalf("speculative run stats %+v differ from clean run %+v — duplicate double-billed", res.Stats, clean.Stats)
	}
	slow.mu.Lock()
	sawDuplicate := false
	for _, a := range slow.attempts {
		if a == 1 {
			sawDuplicate = true
		}
	}
	slow.mu.Unlock()
	if !sawDuplicate {
		t.Fatal("no speculative duplicate was launched")
	}
}

// TestDistributedCancellationNoGoroutineLeak mirrors the scanpipe
// cancellation test at the coordinator level: cancel a distributed run
// whose workers are frozen mid-read, and assert both the coordinator
// goroutines and the scan pipelines drain to zero.
func TestDistributedCancellationNoGoroutineLeak(t *testing.T) {
	waitCounterZero(t, "distributed goroutines (pre)", DistributedGoroutines)
	gs := &gateStore{
		Store:   objstore.NewMemory(),
		after:   8, // past the first files' footers, inside worker chunk reads
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	e := newPartitionedEngineOn(t, gs, 6, 800)
	gs.reads.Store(0)

	ctx, cancel := context.WithCancel(context.Background())
	stmt, _ := sql.Parse("SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e.RunPlanDistributed(ctx, node, "cancel-leak", DistOptions{
			Parts: 3, Invoker: &LocalInvoker{Engine: e},
		})
		errc <- err
	}()

	select {
	case <-gs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("workers never reached the blocked read")
	}
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled distributed run returned no error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled distributed run did not return")
	}
	close(gs.gate) // release attempts still parked in the store

	waitCounterZero(t, "distributed goroutines", DistributedGoroutines)
	waitCounterZero(t, "pipeline goroutines", PipelineGoroutines)
}

// TestDistributedCancellationKillsWorkerProcesses: cancelling the
// coordinator must tear down in-flight worker processes — no orphans.
func TestDistributedCancellationKillsWorkerProcesses(t *testing.T) {
	e, dir := newDiskEngine(t, 6, 800)
	proc := newProcessInvoker(dir)
	// Slow every worker store op so processes are reliably mid-flight when
	// the cancel lands.
	proc.FaultFor = func(*WorkerRequest) *objstore.FaultConfig {
		return &objstore.FaultConfig{Latency: 40 * time.Millisecond}
	}

	ctx, cancel := context.WithCancel(context.Background())
	stmt, _ := sql.Parse("SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e.RunPlanDistributed(ctx, node, "cancel-proc", DistOptions{Parts: 3, Invoker: proc})
		errc <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for proc.LiveProcesses() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no worker process ever started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled run returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}
	waitCounterZero(t, "live worker processes", proc.LiveProcesses)
	waitCounterZero(t, "distributed goroutines", DistributedGoroutines)
}

func waitCounterZero(t *testing.T, what string, counter func() int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for counter() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked: %d alive", what, counter())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerFailureReturnsZeroStats: every worker error path must return
// zero Stats, or retried workers would double-bill whatever the failed
// attempt had scanned before dying.
func TestWorkerFailureReturnsZeroStats(t *testing.T) {
	e := newPartitionedEngine(t, 4, 300)
	// Corrupt the last file so the worker fails mid-execution, after some
	// row groups were already scanned and accounted.
	files := mustTable(t, e, "fact").Files
	if err := e.Store().Put(files[3].Key, []byte("not a pixfile")); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sql.Parse("SELECT COUNT(*), SUM(f_val) FROM fact")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	split, err := e.SplitForCF(node, "zero-stats", 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.runFragment(context.Background(), split.workerPlan, split.partScan, split.Tasks[0].Files, nil,
		func(*col.Batch) error { return nil })
	if err == nil {
		t.Fatal("worker over a corrupt file succeeded")
	}
	if st != (Stats{}) {
		t.Fatalf("failed worker leaked stats: %+v", st)
	}

	// Same across the wire: a failing request reports zero stats.
	if resp := e.ExecuteWorkerRequest(context.Background(), mustRequest(t, split, 0, 0)); resp.Error == "" || resp.Stats != (Stats{}) {
		t.Fatalf("worker response after failure: %+v", resp)
	}
}

func mustRequest(t *testing.T, split *CFSplit, task, attempt int) *WorkerRequest {
	t.Helper()
	req, err := NewWorkerRequest(split, task, attempt)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestDistributedFallsBackWithoutScans: unsplittable plans run serially.
func TestDistributedFallsBackWithoutScans(t *testing.T) {
	e := newPartitionedEngine(t, 2, 100)
	ctx := context.Background()
	if _, err := e.Execute(ctx, "db", "CREATE TABLE empty (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sql.Parse("SELECT COUNT(*) FROM empty")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPlanDistributed(ctx, node, "fallback", DistOptions{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("empty-table count = %v", res.Rows)
	}
}

// TestDistributedWorkerErrorPropagatesRootCause: when a task exhausts its
// retries, the query fails with the worker's error, not a masking
// cancellation, and sibling intermediates are swept.
func TestDistributedWorkerErrorPropagates(t *testing.T) {
	e, _ := newDiskEngine(t, 6, 300)
	files := mustTable(t, e, "fact").Files
	if err := e.Store().Put(files[5].Key, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sql.Parse("SELECT SUM(f_val) FROM fact")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.RunPlanDistributed(context.Background(), node, "err-prop", DistOptions{
		Parts: 6, Invoker: &LocalInvoker{Engine: e}, Retries: 1,
	})
	if err == nil {
		t.Fatal("corrupt partition did not fail the query")
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("root cause masked by cancellation: %v", err)
	}
	infos, err := e.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("failed query left intermediates: %v", infos)
	}
}
