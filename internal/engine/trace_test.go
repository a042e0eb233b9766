package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
)

// planNode parses and plans q.
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
