package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
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

// newProcessInvoker runs worker attempts in warm subprocesses of this test
// binary against the disk store rooted at dir; Close reaps them.
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

// runDist runs q through the hand-driven wire tier: SplitForCF into up to
// parts tasks, one InvokeTask attempt each over inv, MergeIntermediates
// (splitCF). Retries, and everything else a supervisor decides, belong to
// internal/core's scheduler and are tested there and in internal/disttest.
func runDist(t *testing.T, e *Engine, q string, parts int, inv WorkerInvoker) *Result {
	t.Helper()
	distSeq++
	split, err := e.SplitForCF(planNode(t, e, q), fmt.Sprintf("dist-%d", distSeq), parts)
	if err != nil {
		t.Fatalf("split %q: %v", q, err)
	}
	res, _, err := splitCF(e, inv, split)
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
	res, err := e.RunPlan(context.Background(), planNode(t, e, q))
	if err != nil {
		t.Fatalf("serial %q: %v", q, err)
	}
	return res
}

// TestDistributedMatchesSerial runs the parallel battery through the CF
// wire tier at several widths: subprocess workers, store shuffle, merge —
// asserting serial-identical rows and billed bytes, and that the in-process
// LocalInvoker leg (same wire round trip, no process boundary) produces
// bit-identical stats to the subprocess leg.
func TestDistributedMatchesSerial(t *testing.T) {
	e, dir := newDiskEngine(t, 8, 600)
	proc := newProcessInvoker(dir)
	defer proc.Close()
	for _, q := range parallelQueries {
		serial := serialResult(t, e, q)
		for _, width := range []int{1, 2, 8} {
			local := runDist(t, e, q, width, &LocalInvoker{Engine: e})
			expectDistMatchesSerial(t, fmt.Sprintf("%s @%d local", q, width), serial, local)

			dist := runDist(t, e, q, width, proc)
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
	proc := newProcessInvoker(dir)
	defer proc.Close()
	dist := runDist(t, e, q, 6, proc)
	expectDistMatchesSerial(t, q, serial, dist)
	// 6 workers × ≤7 rows × (8B key + 8B val + footer) stays far under one
	// base file: the bounded top-N actually bounded the exchange.
	if dist.Stats.BytesIntermediate >= dist.Stats.BytesScanned {
		t.Fatalf("top-N exchanged %d intermediate bytes vs %d scanned", dist.Stats.BytesIntermediate, dist.Stats.BytesScanned)
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

	split, err := te.SplitForCF(planNode(t, te, "SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat"), "torn-1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := splitCF(te, &LocalInvoker{Engine: te}, split); err == nil {
		t.Fatal("torn intermediate read produced a result instead of an error")
	}
	if st := torn.Stats(); st.TornReads == 0 {
		t.Fatal("no torn read was injected — the test proved nothing")
	}
}

// TestDistributedCancellationNoGoroutineLeak mirrors the scanpipe
// cancellation test at the task level: cancel an in-process InvokeTask
// whose fragment is frozen mid-read, and assert the attempt returns an
// error and its scan pipelines drain to zero.
func TestDistributedCancellationNoGoroutineLeak(t *testing.T) {
	waitCounterZero(t, "pipeline goroutines (pre)", PipelineGoroutines)
	gs := &gateStore{
		Store:   objstore.NewMemory(),
		after:   4, // past the first files' footers, inside worker chunk reads
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	e := newPartitionedEngineOn(t, gs, 6, 800)
	gs.reads.Store(0)

	ctx, cancel := context.WithCancel(context.Background())
	split, err := e.SplitForCF(planNode(t, e, "SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat"), "cancel-leak", 3)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e.InvokeTask(ctx, &LocalInvoker{Engine: e}, split, 0, 0)
		errc <- err
	}()

	select {
	case <-gs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the blocked read")
	}
	cancel()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("err = %v, want a cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled task attempt did not return")
	}
	close(gs.gate) // release reads still parked in the store

	waitCounterZero(t, "pipeline goroutines", PipelineGoroutines)
}

// TestDistributedCancellationKillsWorkerProcesses: cancelling the context
// of an in-flight InvokeTask must tear down its worker process — no
// orphans. The scheduler never cancels an attempt today, but a FaaS
// invoker's deadline or a shutdown path will, and ProcessInvoker is the
// only place the kill can happen.
func TestDistributedCancellationKillsWorkerProcesses(t *testing.T) {
	e, dir := newDiskEngine(t, 6, 800)
	proc := newProcessInvoker(dir)
	// Slow every worker store op so the process is reliably mid-flight when
	// the cancel lands.
	proc.FaultFor = func(*WorkerRequest) *objstore.FaultConfig {
		return &objstore.FaultConfig{Latency: 40 * time.Millisecond}
	}

	ctx, cancel := context.WithCancel(context.Background())
	split, err := e.SplitForCF(planNode(t, e, "SELECT f_cat, SUM(f_val) FROM fact GROUP BY f_cat"), "cancel-proc", 3)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e.InvokeTask(ctx, proc, split, 0, 0)
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
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled task attempt did not return")
	}
	if n := proc.LiveProcesses(); n != 0 {
		t.Fatalf("%d worker processes alive after the cancelled attempt returned", n)
	}
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
