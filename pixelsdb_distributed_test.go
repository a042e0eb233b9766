package pixelsdb

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	// Options.CFExecution "process" tests point CFWorkerCmd at this test
	// binary; re-executed copies become pixels-worker processes.
	if os.Getenv("PIXELS_WORKER_PROCESS") == "1" {
		os.Exit(engine.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestCFExecutionProcessMode drives the full public path of the
// multi-process CF tier: a query submitted through the scheduler falls
// back to cloud functions, each worker task runs as a separate OS process
// against the DataDir store, intermediates shuffle through the object
// store, and the result, stats and bill are identical to the serial
// engine path (plus the visible intermediate bytes).
func TestCFExecutionProcessMode(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("PIXELS_WORKER_PROCESS", "1") // inherited by worker re-execs
	db, err := Open(Options{
		DataDir:     dir,
		CFExecution: "process",
		CFWorkerCmd: []string{os.Args[0]},
		InitialVMs:  1,
		VM:          vmsim.Config{SlotsPerVM: 1}, // one slot: easy to saturate
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := workload.Load(db.Engine(), "tpch", workload.LoadOptions{SF: 0.01, Seed: 11, RowsPerFile: 4096}); err != nil {
		t.Fatal(err)
	}

	q := "SELECT l_returnflag, COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"
	ref, err := db.Execute(context.Background(), "tpch", q)
	if err != nil {
		t.Fatal(err)
	}

	// Hold every VM slot so the Immediate query goes to CF. (A blocking
	// query in the slot instead could finish before the second submission
	// is placed, and then the second query would run on the VM.)
	for {
		l, ok := db.Cluster().TryAcquire()
		if !ok {
			break
		}
		defer l.Release()
	}
	cfq, err := db.Submit("tpch", q, Immediate)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-cfq.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("query timed out")
	}
	if err := cfq.Err(); err != nil {
		t.Fatal(err)
	}
	if !cfq.UsedCF() {
		t.Fatal("second immediate query ran on the saturated VM tier, not CF")
	}
	// Start-up on the served path is the real worker start, not a modelled
	// cold start (800 ms by default) slept on top of it.
	_, started, ended := cfq.Times()
	took := ended.Sub(started)
	t.Logf("CF query took %v from start to end", took)
	if took >= 400*time.Millisecond {
		t.Fatalf("CF query took %v, want < 400ms", took)
	}

	res := cfq.Result()
	if fmt.Sprint(res.Rows) != fmt.Sprint(ref.Rows) {
		t.Fatalf("CF rows diverged from serial:\n%v\nvs\n%v", res.Rows, ref.Rows)
	}
	// Result().Stats carries the merge side; reading the workers'
	// intermediates back proves the shuffle went through the store.
	if res.Stats.BytesIntermediate <= 0 {
		t.Fatal("no intermediate bytes: did the query really shuffle through the store?")
	}
	var bill = false
	for _, b := range db.Ledger().All() {
		if b.QueryID == cfq.ID {
			bill = true
			if b.BytesScanned != ref.Stats.BytesScanned {
				t.Fatalf("bill %d bytes, serial %d", b.BytesScanned, ref.Stats.BytesScanned)
			}
			if !b.UsedCF || b.Usage.CFInvocations == 0 {
				t.Fatalf("bill does not reflect CF execution: %+v", b)
			}
		}
	}
	if !bill {
		t.Fatalf("no bill for %s", cfq.ID)
	}

	// The shuffle namespace must be swept after the merge.
	infos, err := db.Engine().Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates left behind: %v", infos)
	}
}

// TestCloseReapsCFWorkers: the warm worker processes of CFExecution
// "process" outlive the query that started them, and DB.Close reaps them.
// Children are counted from /proc, by parent pid.
func TestCloseReapsCFWorkers(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc to count child processes in")
	}
	t.Setenv("PIXELS_WORKER_PROCESS", "1") // inherited by worker re-execs
	db, err := Open(Options{DataDir: t.TempDir(), CFExecution: "process", CFWorkerCmd: []string{os.Args[0]}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := workload.Load(db.Engine(), "tpch", workload.LoadOptions{SF: 0.01, Seed: 11, RowsPerFile: 2048}); err != nil {
		t.Fatal(err)
	}
	// Hold every VM slot, so the Immediate query runs on CF.
	for {
		l, ok := db.Cluster().TryAcquire()
		if !ok {
			break
		}
		defer l.Release()
	}
	q, err := db.Submit("tpch", "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag", Immediate)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-q.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("query timed out")
	}
	if err := q.Err(); err != nil || !q.UsedCF() {
		t.Fatalf("err %v, usedCF %v: want a finished CF query", err, q.UsedCF())
	}
	if n := childProcesses(t); n < 1 {
		t.Fatalf("%d child processes after a CF query; its workers should still be warm", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := childProcesses(t); n != 0 {
		t.Fatalf("%d child processes left after Close", n)
	}
}

// childProcesses counts the processes, zombies included, whose parent is
// this one.
func childProcesses(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	me := strconv.Itoa(os.Getpid())
	n := 0
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		status, err := os.ReadFile("/proc/" + e.Name() + "/status")
		if err != nil {
			continue // exited since the listing
		}
		for _, line := range strings.Split(string(status), "\n") {
			if ppid, ok := strings.CutPrefix(line, "PPid:"); ok && strings.TrimSpace(ppid) == me {
				n++
			}
		}
	}
	return n
}

// TestCFExecutionOptionValidation pins the Options contract: process mode
// without a DataDir cannot work (workers cannot open an in-memory store)
// and must fail at Open, not at the first CF query.
func TestCFExecutionOptionValidation(t *testing.T) {
	if _, err := Open(Options{CFExecution: "process"}); err == nil {
		t.Fatal("process mode without DataDir was accepted")
	}
	if _, err := Open(Options{CFExecution: "threads"}); err == nil {
		t.Fatal("unknown CFExecution value was accepted")
	}
	db, err := Open(Options{CFExecution: "inprocess"})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}
