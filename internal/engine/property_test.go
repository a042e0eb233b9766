package engine

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/plan"
	"repro/internal/sql"
)

// TestCFSplitEquivalenceProperty: for randomized aggregate queries, the CF
// path (split -> workers -> merge) must produce exactly the local result.
func TestCFSplitEquivalenceProperty(t *testing.T) {
	e := newSplitEngine(t)
	ctx := context.Background()
	groupCols := []string{"f_cat", "f_dim"}
	aggs := []string{"COUNT(*)", "SUM(f_val)", "AVG(f_val)", "MIN(f_key)", "MAX(f_val)"}

	runID := 0
	f := func(groupPick, aggPick, threshold uint8, partsPick uint8) bool {
		runID++
		group := groupCols[int(groupPick)%len(groupCols)]
		agg := aggs[int(aggPick)%len(aggs)]
		parts := 1 + int(partsPick)%6
		q := fmt.Sprintf("SELECT %s, %s AS a FROM fact WHERE f_val > %d GROUP BY %s ORDER BY %s",
			group, agg, int(threshold)%10, group, group)

		stmt, err := sql.Parse(q)
		if err != nil {
			return false
		}
		sel := stmt.(*sql.Select)
		localPlan, err := e.PlanQuery("db", sel)
		if err != nil {
			return false
		}
		local, err := e.RunPlan(ctx, localPlan)
		if err != nil {
			return false
		}

		cfPlan, err := e.PlanQuery("db", sel)
		if err != nil {
			return false
		}
		split, err := e.SplitForCF(cfPlan, fmt.Sprintf("prop-%d", runID), parts)
		if err != nil {
			return false
		}
		merged, _, err := splitCF(e, &LocalInvoker{Engine: e}, split)
		if err != nil {
			return false
		}
		// Partial aggregation reorders float additions, so float cells are
		// compared with a relative tolerance; everything else exactly.
		if len(local.Rows) != len(merged.Rows) {
			return false
		}
		for i := range local.Rows {
			for c := range local.Rows[i] {
				a, b := local.Rows[i][c], merged.Rows[i][c]
				if a.Null != b.Null {
					return false
				}
				if a.Null {
					continue
				}
				if a.Type.Numeric() && b.Type.Numeric() {
					af, bf := a.AsFloat(), b.AsFloat()
					diff := af - bf
					if diff < 0 {
						diff = -diff
					}
					scale := 1.0
					if af > scale {
						scale = af
					}
					if -af > scale {
						scale = -af
					}
					if diff > 1e-9*scale {
						t.Logf("query %q parts=%d row %d col %d: local %v vs cf %v", q, parts, i, c, a, b)
						return false
					}
					continue
				}
				if !a.Equal(b) {
					t.Logf("query %q parts=%d row %d col %d: local %v vs cf %v", q, parts, i, c, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDistributedEquivalenceProperty: randomized queries must produce
// bit-identical rows and identical billed bytes across all three execution
// tiers — serial, in-process parallel, and multi-process (warm subprocess
// workers, store-based shuffle). The partitioned fixture holds
// integer-valued floats, so no tolerance is needed: any accumulation-order
// or serialization drift is a failure.
func TestDistributedEquivalenceProperty(t *testing.T) {
	e, dir := newDiskEngine(t, 8, 400)
	proc := newProcessInvoker(dir)
	defer proc.Close()
	ctx := context.Background()
	groupCols := []string{"f_cat", "f_dim"}
	aggs := []string{"COUNT(*)", "SUM(f_val)", "AVG(f_val)", "MIN(f_key)", "MAX(f_val)"}
	widths := []int{1, 2, 8}

	runID := 0
	f := func(shapePick, groupPick, aggPick, threshold, widthPick uint8) bool {
		runID++
		width := widths[int(widthPick)%len(widths)]
		var q string
		if shapePick%4 == 0 {
			// Top-N shape: workers ship bounded sorted intermediates.
			q = fmt.Sprintf("SELECT f_key, f_val FROM fact WHERE f_val > %d ORDER BY f_val DESC, f_key LIMIT %d",
				int(threshold)%10, 1+int(aggPick)%20)
		} else {
			group := groupCols[int(groupPick)%len(groupCols)]
			agg := aggs[int(aggPick)%len(aggs)]
			q = fmt.Sprintf("SELECT %s, %s AS a FROM fact WHERE f_val > %d GROUP BY %s ORDER BY %s",
				group, agg, int(threshold)%10, group, group)
		}
		label := fmt.Sprintf("%s @%d", q, width)

		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sel := stmt.(*sql.Select)
		sNode, err := e.PlanQuery("db", sel)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		serial, err := e.RunPlan(ctx, sNode)
		if err != nil {
			t.Fatalf("serial %s: %v", label, err)
		}

		pNode, err := e.PlanQuery("db", sel)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		par, err := e.RunPlanParallel(ctx, pNode, width)
		if err != nil {
			t.Fatalf("parallel %s: %v", label, err)
		}
		expectIdentical(t, label, serial, par)

		expectDistMatchesSerial(t, label, serial, runDist(t, e, q, width, proc))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestZoneMapEquivalenceProperty: stripping zone-map predicates (disabling
// pruning) must never change query results — pruning is purely a physical
// optimization.
func TestZoneMapEquivalenceProperty(t *testing.T) {
	e := newSplitEngine(t)
	ctx := context.Background()
	ops := []string{"=", "<", "<=", ">", ">=", "<>"}

	f := func(opPick uint8, key uint16) bool {
		op := ops[int(opPick)%len(ops)]
		q := fmt.Sprintf("SELECT COUNT(*), SUM(f_val) FROM fact WHERE f_key %s %d", op, int(key)%3500)

		stmt, err := sql.Parse(q)
		if err != nil {
			return false
		}
		sel := stmt.(*sql.Select)

		pruned, err := e.PlanQuery("db", sel)
		if err != nil {
			return false
		}
		prunedRes, err := e.RunPlan(ctx, pruned)
		if err != nil {
			return false
		}

		unpruned, err := e.PlanQuery("db", sel)
		if err != nil {
			return false
		}
		for _, scan := range plan.Scans(unpruned) {
			scan.ZonePreds = nil
		}
		unprunedRes, err := e.RunPlan(ctx, unpruned)
		if err != nil {
			return false
		}

		lg, mg := rowsAsStrings(prunedRes), rowsAsStrings(unprunedRes)
		if len(lg) != len(mg) {
			return false
		}
		for i := range lg {
			if lg[i] != mg[i] {
				t.Logf("query %q: pruned %q vs unpruned %q", q, lg[i], mg[i])
				return false
			}
		}
		// Equality predicates on the clustered key must actually prune.
		if op == "=" && prunedRes.Stats.RowGroupsPruned == 0 {
			t.Logf("query %q pruned nothing", q)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSortedOutputProperty: ORDER BY output must be sorted regardless of
// filter selectivity.
func TestSortedOutputProperty(t *testing.T) {
	e := newSplitEngine(t)
	ctx := context.Background()
	f := func(threshold uint8) bool {
		q := fmt.Sprintf("SELECT f_key, f_val FROM fact WHERE f_val > %d ORDER BY f_val DESC, f_key ASC LIMIT 50", int(threshold)%10)
		res, err := e.Execute(ctx, "db", q)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			prev, cur := res.Rows[i-1], res.Rows[i]
			if prev[1].F < cur[1].F {
				return false
			}
			if prev[1].F == cur[1].F && prev[0].I > cur[0].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
