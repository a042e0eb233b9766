package disttest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/obs"
)

// failFirstAttempts makes attempt 0 of every task fail deterministically:
// the worker process gets a fault plan under which every store operation
// errors, so a query can only succeed if the scheduler retried each task in
// a fresh worker.
func failFirstAttempts(req *engine.WorkerRequest) *objstore.FaultConfig {
	if req.Attempt == 0 {
		return &objstore.FaultConfig{FailFirst: 1 << 30}
	}
	return nil
}

func expectNoIntermediates(t *testing.T, e *engine.Engine) {
	t.Helper()
	infos, err := e.Store().List(objstore.IntermediateRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Fatalf("intermediates left behind: %v", infos)
	}
}

// TestRecoversFromWorkerStoreErrors: injected store errors inside worker
// processes must be invisible to the customer — same rows, same billed
// bytes, same stats as the fault-free served run, and no leftover
// intermediates. The scheduler's retry loop relaunches each task.
func TestRecoversFromWorkerStoreErrors(t *testing.T) {
	e, dir := fixture(t)
	for _, q := range experimentQueries {
		serial := runSerial(t, e, q)
		clean, _ := runServed(t, e, q, 4, 0, processInvoker(t, dir))

		proc := processInvoker(t, dir)
		proc.FaultFor = failFirstAttempts
		recovered, bill := runServed(t, e, q, 4, 1, proc)
		expectServedLikeSerial(t, q+" served recovered", serial, clean, recovered, bill)
	}
	expectNoIntermediates(t, e)
}

// TestSeededErrorRateRecovery: a seeded random error rate on first attempts
// (the realistic flaky-store case, not the deterministic always-fail one)
// must also recover within the retry budget.
func TestSeededErrorRateRecovery(t *testing.T) {
	e, dir := fixture(t)
	q := experimentQueries[0]
	serial := runSerial(t, e, q)
	clean, _ := runServed(t, e, q, 8, 0, processInvoker(t, dir))

	proc := processInvoker(t, dir)
	proc.FaultFor = func(req *engine.WorkerRequest) *objstore.FaultConfig {
		if req.Attempt == 0 {
			return &objstore.FaultConfig{Seed: int64(req.Task + 1), ErrorRate: 0.2}
		}
		return nil
	}
	recovered, bill := runServed(t, e, q, 8, 1, proc)
	expectServedLikeSerial(t, q+" flaky", serial, clean, recovered, bill)
	expectNoIntermediates(t, e)
}

// TestTornIntermediateReadFailsLoudly: silent corruption of the shuffled
// intermediates (bit flips, correct length) must fail the query through the
// file checksums — wrong answers are worse than errors — and the failed
// query bills nothing and leaves nothing behind.
func TestTornIntermediateReadFailsLoudly(t *testing.T) {
	e, _ := fixture(t)
	torn := objstore.NewFaultStore(e.Store(), objstore.FaultConfig{
		TornFirst: 1,
		Ops:       []string{"GetRange"},
		Prefix:    objstore.IntermediateRoot,
	})
	te := engine.New(e.Catalog(), torn)

	s := submitServed(t, te, experimentQueries[0], 4, 0, &engine.LocalInvoker{Engine: te}, false)
	if s.q.Err() == nil {
		t.Fatal("torn intermediate produced a result instead of an error")
	}
	if st := torn.Stats(); st.TornReads == 0 {
		t.Fatal("no torn read was injected — the test proved nothing")
	}
	if s.bill.Status != "failed" || s.bill.BytesScanned != 0 {
		t.Fatalf("failed query billed: %+v", s.bill)
	}
	expectNoIntermediates(t, e)
}

// TestServedTraceShapeAcrossProcesses pins the span tree of a served CF
// query whose tasks run in worker processes — what benchmark/trace.go folds
// for cf_spill: one cf-task:N.aK span per attempt under the query root, the
// winning attempt's fragment:tN.aK subtree (recorded in the worker process
// and shipped back over the wire) adopted beneath it, one merge. A failed
// attempt keeps its span, carrying the error; a query that exhausts a
// task's retries still stores a well-formed trace.
func TestServedTraceShapeAcrossProcesses(t *testing.T) {
	e, dir := fixture(t)
	q := experimentQueries[0]
	const tasks = 4

	// attempt returns the single cf-task:<task>.a<k> span, or nil.
	attempt := func(t *testing.T, data *obs.SpanData, task, k int) *obs.SpanData {
		t.Helper()
		spans := obs.FindSpans(data, fmt.Sprintf("cf-task:%d.a%d", task, k))
		if len(spans) > 1 {
			t.Fatalf("%d cf-task:%d.a%d spans", len(spans), task, k)
		}
		if len(spans) == 0 {
			return nil
		}
		return spans[0]
	}
	// expectWinner asserts attempt k of task won: no error, its fragment
	// subtree adopted with operator spans inside.
	expectWinner := func(t *testing.T, data *obs.SpanData, task, k int) {
		t.Helper()
		a := attempt(t, data, task, k)
		frag := fmt.Sprintf("fragment:t%d.a%d", task, k)
		if a == nil || a.Attrs["error"] != nil || len(a.Children) != 1 || a.Children[0].Name != frag {
			t.Fatalf("cf-task:%d.a%d = %+v, want a clean attempt over the adopted %s", task, k, a, frag)
		}
		if len(obs.FindSpans(a, "op:agg")) == 0 {
			t.Fatalf("%s shipped no operator spans", frag)
		}
	}

	t.Run("clean", func(t *testing.T) {
		retries := obs.DistTaskRetriesTotal.Value()
		s := submitServed(t, e, q, tasks, 1, processInvoker(t, dir), true)
		if err := s.q.Err(); err != nil {
			t.Fatal(err)
		}
		if err := obs.CheckWellFormed(s.trace); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tasks; i++ {
			expectWinner(t, s.trace, i, 0)
			if attempt(t, s.trace, i, 1) != nil {
				t.Fatalf("task %d retried on a fault-free run", i)
			}
		}
		if got := len(obs.FindSpans(s.trace, "merge")); got != 1 {
			t.Fatalf("merge spans = %d, want 1", got)
		}
		if got := obs.DistTaskRetriesTotal.Value() - retries; got != 0 {
			t.Fatalf("retry counter advanced by %d on a fault-free run", got)
		}
	})

	t.Run("retry", func(t *testing.T) {
		proc := processInvoker(t, dir)
		proc.FaultFor = failFirstAttempts
		retries := obs.DistTaskRetriesTotal.Value()
		s := submitServed(t, e, q, tasks, 1, proc, true)
		if err := s.q.Err(); err != nil {
			t.Fatal(err)
		}
		if err := obs.CheckWellFormed(s.trace); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tasks; i++ {
			failed := attempt(t, s.trace, i, 0)
			if failed == nil || failed.Attrs["error"] == nil || len(failed.Children) != 0 {
				t.Fatalf("cf-task:%d.a0 = %+v, want a childless span carrying the error", i, failed)
			}
			expectWinner(t, s.trace, i, 1)
		}
		if got := len(obs.FindSpans(s.trace, "merge")); got != 1 {
			t.Fatalf("merge spans = %d, want 1", got)
		}
		if got := obs.DistTaskRetriesTotal.Value() - retries; got != tasks {
			t.Fatalf("retry counter advanced by %d, want %d (one per retried task)", got, tasks)
		}
	})

	t.Run("exhausted", func(t *testing.T) {
		proc := processInvoker(t, dir)
		proc.FaultFor = func(req *engine.WorkerRequest) *objstore.FaultConfig {
			if req.Task == 2 {
				return &objstore.FaultConfig{FailFirst: 1 << 30}
			}
			return nil
		}
		s := submitServed(t, e, q, tasks, 1, proc, true)
		if err := s.q.Err(); err == nil || !strings.Contains(err.Error(), "worker 2 attempt 1") {
			t.Fatalf("err = %v, want task 2's last attempt as the root cause", err)
		}
		if err := obs.CheckWellFormed(s.trace); err != nil {
			t.Fatal(err)
		}
		if s.trace.Attrs["status"] != "failed" || s.bill.Status != "failed" || s.bill.BytesScanned != 0 {
			t.Fatalf("root attrs %v, bill %+v: want a failed query that bills nothing", s.trace.Attrs, s.bill)
		}
		for k := 0; k < 2; k++ {
			if a := attempt(t, s.trace, 2, k); a == nil || a.Attrs["error"] == nil {
				t.Fatalf("cf-task:2.a%d = %+v, want a span carrying the error", k, a)
			}
		}
		if attempt(t, s.trace, 2, 2) != nil {
			t.Fatal("an attempt ran past the retry budget")
		}
		if got := len(obs.FindSpans(s.trace, "merge")); got != 0 {
			t.Fatalf("failed query merged (%d merge spans)", got)
		}
		expectNoIntermediates(t, e)
	})
}
