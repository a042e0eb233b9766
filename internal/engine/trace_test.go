package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
)

// planNode parses and plans q (a fresh node per run — plans are
// single-use).
func planNode(t *testing.T, e *Engine, q string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// tracedRun runs node under a fresh trace and returns the result plus the
// finished, snapshot span tree.
func tracedRun(t *testing.T, e *Engine, q string, width int) (*Result, *obs.SpanData) {
	t.Helper()
	tr := obs.NewTrace("trace-test", "query")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	res, err := e.RunPlanParallel(ctx, planNode(t, e, q), width)
	if err != nil {
		t.Fatalf("traced width %d %q: %v", width, q, err)
	}
	tr.Root().End()
	return res, tr.Data()
}

// countPrefix counts spans whose name starts with prefix.
func countPrefix(root *obs.SpanData, prefix string) int {
	if root == nil {
		return 0
	}
	n := 0
	if strings.HasPrefix(root.Name, prefix) {
		n++
	}
	for _, c := range root.Children {
		n += countPrefix(c, prefix)
	}
	return n
}

// TestTraceWellFormedSerialAndParallel runs the parallel battery at widths
// 1, 2 and 8 with tracing on, asserting (a) the span tree is well-formed
// (single named root, no negative durations, children within parents), (b)
// an exec-path span and operator spans were recorded, and (c) rows and
// stats are bit-identical to the same run without tracing.
func TestTraceWellFormedSerialAndParallel(t *testing.T) {
	e := newPartitionedEngine(t, 8, 400)
	for _, width := range []int{1, 2, 8} {
		for _, q := range parallelQueries {
			res, data := tracedRun(t, e, q, width)
			if err := obs.CheckWellFormed(data); err != nil {
				t.Fatalf("width %d %q: %v", width, q, err)
			}
			if n := countPrefix(data, "exec:"); n != 1 {
				t.Fatalf("width %d %q: %d exec spans, want 1", width, q, n)
			}
			if n := countPrefix(data, "op:"); n == 0 {
				t.Fatalf("width %d %q: no operator spans", width, q)
			}
			base, err := e.RunPlanParallel(context.Background(), planNode(t, e, q), width)
			if err != nil {
				t.Fatalf("untraced width %d %q: %v", width, q, err)
			}
			expectIdentical(t, q, base, res)
		}
	}
}

// TestTraceWellFormedPipelined is the same invariant with the scan
// prefetch pipeline on: prefetch goroutines deliver batches into spanned
// operators, and the tree must stay well-formed with identical results.
func TestTraceWellFormedPipelined(t *testing.T) {
	e := newPartitionedEngine(t, 8, 400)
	e.prefetch = 4
	for _, width := range []int{1, 2, 8} {
		for _, q := range parallelQueries {
			res, data := tracedRun(t, e, q, width)
			if err := obs.CheckWellFormed(data); err != nil {
				t.Fatalf("pipelined width %d %q: %v", width, q, err)
			}
			base, err := e.RunPlanParallel(context.Background(), planNode(t, e, q), width)
			if err != nil {
				t.Fatalf("untraced pipelined width %d %q: %v", width, q, err)
			}
			expectIdentical(t, q, base, res)
		}
	}
}

// TestTraceDistributedSpans runs the multi-process path with tracing on:
// the tree must contain the exec:distributed span, one task span per
// partition, each task's winning attempt, and the worker-process fragment
// subtree shipped back over the wire and grafted under its attempt.
func TestTraceDistributedSpans(t *testing.T) {
	e, dir := newDiskEngine(t, 6, 500)
	proc := newProcessInvoker(dir)
	q := "SELECT f_cat, COUNT(*), SUM(f_val) FROM fact GROUP BY f_cat ORDER BY f_cat"
	serial := serialResult(t, e, q)
	for _, parts := range []int{2, 8} {
		distSeq++
		tr := obs.NewTrace("trace-dist", "query")
		ctx := obs.ContextWithTrace(context.Background(), tr)
		res, err := e.RunPlanDistributed(ctx, planNode(t, e, q), fmt.Sprintf("trace-dist-%d", distSeq),
			DistOptions{Parts: parts, Invoker: proc})
		if err != nil {
			t.Fatalf("parts %d: %v", parts, err)
		}
		tr.Root().End()
		data := tr.Data()
		if err := obs.CheckWellFormed(data); err != nil {
			t.Fatalf("parts %d: %v", parts, err)
		}
		execs := obs.FindSpans(data, "exec:distributed")
		if len(execs) != 1 {
			t.Fatalf("parts %d: %d exec:distributed spans", parts, len(execs))
		}
		n, ok := execs[0].Attrs["parts"].(int)
		if !ok || n < 2 {
			t.Fatalf("parts %d: exec span parts attr = %v", parts, execs[0].Attrs["parts"])
		}
		for i := 0; i < n; i++ {
			if got := len(obs.FindSpans(data, fmt.Sprintf("task:%d", i))); got != 1 {
				t.Fatalf("parts %d: task:%d spans = %d", parts, i, got)
			}
			if got := len(obs.FindSpans(data, fmt.Sprintf("fragment:t%d.a0", i))); got != 1 {
				t.Fatalf("parts %d: fragment:t%d.a0 spans = %d", parts, i, got)
			}
		}
		if got := countPrefix(data, "attempt:"); got != n {
			t.Fatalf("parts %d: %d attempt spans, want %d", parts, got, n)
		}
		if got := len(obs.FindSpans(data, "merge")); got != 1 {
			t.Fatalf("parts %d: merge spans = %d", parts, got)
		}
		expectDistMatchesSerial(t, q, serial, res)
	}
}

// TestTraceDistributedRetryEvents fails every task's first attempt: the
// task spans must record "retry" events, the winning attempt:1 spans must
// appear, losers must not leave open spans in the tree, and the retry
// counter must advance.
func TestTraceDistributedRetryEvents(t *testing.T) {
	e, _ := newDiskEngine(t, 6, 500)
	q := "SELECT COUNT(*), SUM(f_val) FROM fact"
	flaky := &flakyInvoker{engine: e, failAttempts: map[int]bool{0: true}}
	retriesBefore := obs.DistTaskRetriesTotal.Value()

	distSeq++
	tr := obs.NewTrace("trace-retry", "query")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, err := e.RunPlanDistributed(ctx, planNode(t, e, q), fmt.Sprintf("trace-retry-%d", distSeq),
		DistOptions{Parts: 3, Invoker: flaky, Retries: 2}); err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	data := tr.Data()
	if err := obs.CheckWellFormed(data); err != nil {
		t.Fatal(err)
	}
	if flaky.injected() == 0 {
		t.Fatal("fault injection never fired — the test proved nothing")
	}
	if got := obs.DistTaskRetriesTotal.Value() - retriesBefore; got < 1 {
		t.Fatalf("retry counter advanced by %d, want >= 1", got)
	}
	retryEvents := 0
	for i := 0; ; i++ {
		tasks := obs.FindSpans(data, fmt.Sprintf("task:%d", i))
		if len(tasks) == 0 {
			break
		}
		for _, ev := range tasks[0].Events {
			if ev.Name == "retry" {
				retryEvents++
			}
		}
	}
	if retryEvents == 0 {
		t.Fatal("no retry events recorded on task spans")
	}
	if got := countPrefix(data, "attempt:1"); got == 0 {
		t.Fatal("no winning attempt:1 spans in the tree")
	}
}

// TestTraceDistributedRetryExhaustion fails every attempt: the error must
// name the swept intermediate attempt keys, the task span must carry a
// "retries-exhausted" event listing them, and the swept-keys counter must
// advance by the number of attempts.
func TestTraceDistributedRetryExhaustion(t *testing.T) {
	e, _ := newDiskEngine(t, 4, 400)
	q := "SELECT COUNT(*) FROM fact"
	flaky := &flakyInvoker{engine: e, failAttempts: map[int]bool{0: true, 1: true, 2: true}}
	sweptBefore := obs.DistTaskSweptKeysTotal.Value()

	distSeq++
	tr := obs.NewTrace("trace-exhaust", "query")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	_, err := e.RunPlanDistributed(ctx, planNode(t, e, q), fmt.Sprintf("trace-exhaust-%d", distSeq),
		DistOptions{Parts: 2, Invoker: flaky, Retries: 1})
	if err == nil {
		t.Fatal("all-attempts-fail run succeeded")
	}
	if !strings.Contains(err.Error(), "sweeping intermediates") {
		t.Fatalf("exhaustion error does not name swept keys: %v", err)
	}
	tr.Root().End()
	data := tr.Data()
	if err := obs.CheckWellFormed(data); err != nil {
		t.Fatal(err)
	}
	if obs.DistTaskSweptKeysTotal.Value()-sweptBefore < 2 {
		t.Fatal("swept-keys counter did not advance by the failed attempts")
	}
	exhausted := 0
	for i := 0; ; i++ {
		tasks := obs.FindSpans(data, fmt.Sprintf("task:%d", i))
		if len(tasks) == 0 {
			break
		}
		for _, ev := range tasks[0].Events {
			if ev.Name == "retries-exhausted" {
				exhausted++
				if ev.Attr["swept_keys"] == nil {
					t.Fatalf("retries-exhausted event carries no swept_keys: %+v", ev)
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no retries-exhausted event recorded")
	}
}
