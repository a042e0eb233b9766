package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
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

// buildScanSpans names the operator spans of the scans on some join's
// build side of n.
func buildScanSpans(n plan.Node) map[string]bool {
	out := map[string]bool{}
	if j, ok := n.(*plan.JoinNode); ok {
		for _, s := range plan.Scans(j.Right) {
			out["op:scan "+s.Binding] = true
		}
	}
	for _, c := range n.Children() {
		for name := range buildScanSpans(c) {
			out[name] = true
		}
	}
	return out
}

// checkBuildShape fails unless every span named in builds descends from a
// join-build span and from no op:join span, and returns how many it saw.
func checkBuildShape(t *testing.T, what string, root *obs.SpanData, builds map[string]bool) int {
	t.Helper()
	seen := 0
	var walk func(s *obs.SpanData, inBuild, inJoin bool)
	walk = func(s *obs.SpanData, inBuild, inJoin bool) {
		if builds[s.Name] {
			seen++
			if !inBuild || inJoin {
				t.Errorf("%s: %q under join-build %v, under op:join %v; want join-build only", what, s.Name, inBuild, inJoin)
			}
		}
		inBuild = inBuild || s.Name == "join-build"
		inJoin = inJoin || s.Name == "op:join"
		for _, c := range s.Children {
			walk(c, inBuild, inJoin)
		}
	}
	walk(root, false, false)
	return seen
}

// checkWorkerBuilds fails unless every fragment span of a CF split holds
// each of the worker plan's build scans once, under its own join-build
// span, and returns how many it saw.
func checkWorkerBuilds(t *testing.T, what string, root *obs.SpanData, split *CFSplit) int {
	t.Helper()
	builds := buildScanSpans(split.workerPlan)
	frags, seen := 0, 0
	var walk func(s *obs.SpanData)
	walk = func(s *obs.SpanData) {
		if !strings.HasPrefix(s.Name, "fragment:") {
			for _, c := range s.Children {
				walk(c)
			}
			return
		}
		frags++
		if n := checkBuildShape(t, what+" "+s.Name, s, builds); n != len(builds) {
			t.Errorf("%s: %s holds %d build scans, want %d", what, s.Name, n, len(builds))
		}
		seen += len(builds)
	}
	walk(root)
	if frags != len(split.Tasks) {
		t.Errorf("%s: %d fragment spans for %d tasks", what, frags, len(split.Tasks))
	}
	return seen
}

// tracedDist runs q split for CF over the in-process invoker under a fresh
// trace — each task attempt, then the merge — and returns the result plus
// the finished span tree and the split.
func tracedDist(t *testing.T, e *Engine, q string, parts int) (*Result, *obs.SpanData, *CFSplit) {
	t.Helper()
	tr := obs.NewTrace("trace-test", "query")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	distSeq++
	split, err := e.SplitForCF(planNode(t, e, q), fmt.Sprintf("dist-%d", distSeq), parts)
	if err != nil {
		t.Fatalf("split %q: %v", q, err)
	}
	var stats Stats
	interms := make([]catalog.FileMeta, len(split.Tasks))
	for i := range split.Tasks {
		resp, err := e.InvokeTask(ctx, &LocalInvoker{Engine: e}, split, i, 0)
		if err != nil {
			t.Fatalf("task %d %q: %v", i, q, err)
		}
		interms[i] = resp.Interm
		stats.Add(resp.Stats)
	}
	res, err := e.MergeIntermediates(ctx, split, interms)
	if err != nil {
		t.Fatalf("merge %q: %v", q, err)
	}
	res.Stats.Add(stats)
	tr.Root().End()
	return res, tr.Data(), split
}

// TestTraceJoinBuildOneShape: every topology traces a join build the same
// way. Serially, over the parallel split at widths 2 and 8, and split for
// CF (each task's fragment, then the merge), every build side's scan runs
// under a join-build span and under no op:join span, whose time is the
// probe alone; a plan without a join opens no join-build span; and rows
// and stats match the untraced run.
func TestTraceJoinBuildOneShape(t *testing.T) {
	e := newPartitionedEngine(t, 8, 400)
	for _, width := range []int{1, 2, 8} {
		for _, q := range mergeSideQueries {
			builds := buildScanSpans(planNode(t, e, q))
			if len(builds) == 0 {
				continue
			}
			what := fmt.Sprintf("width %d %q", width, q)
			res, data := tracedRun(t, e, q, width)
			if checkBuildShape(t, what, data, builds) == 0 {
				t.Errorf("%s: no build scan span", what)
			}
			base, err := e.RunPlanParallel(context.Background(), planNode(t, e, q), width)
			if err != nil {
				t.Fatalf("untraced %s: %v", what, err)
			}
			expectIdentical(t, what, base, res)

			what += " CF"
			cf, data, split := tracedDist(t, e, q, width)
			if checkBuildShape(t, what, data, buildScanSpans(split.mergePlan))+checkWorkerBuilds(t, what, data, split) == 0 {
				t.Errorf("%s: no build scan span", what)
			}
			expectIdentical(t, what, runDist(t, e, q, width, &LocalInvoker{Engine: e}), cf)
		}
		for _, q := range parallelQueries {
			if len(buildScanSpans(planNode(t, e, q))) > 0 {
				continue
			}
			if _, data := tracedRun(t, e, q, width); countPrefix(data, "join-build") != 0 {
				t.Errorf("width %d %q: a plan without a join has a join-build span", width, q)
			}
		}
	}
}
