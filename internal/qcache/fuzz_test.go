package qcache_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/workload"
)

// FuzzPlanKeyOnePlan checks that one plan-cache key means one plan. It
// plans first and then second through a fresh cache; whenever second is
// served from the entry first filled, the served plan must equal, field by
// field, the plan of second bound on its own. Rendered operator labels would
// be too coarse an oracle: IN ('A, B') and IN ('A', 'B') label alike. Seeds are the workload
// statements, their case, whitespace, comment and trailing-';' variants,
// and a quoted identifier that spells out a token sequence.
func FuzzPlanKeyOnePlan(f *testing.F) {
	cat := catalog.New()
	eng := engine.New(cat, objstore.NewMemory())
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.001, Seed: 1}); err != nil {
		f.Fatal(err)
	}
	if _, err := eng.Execute(context.Background(), "tpch", "CREATE TABLE t (a BIGINT, s VARCHAR)"); err != nil {
		f.Fatal(err)
	}
	gen := workload.NewQueryGen(1, 0.001)
	var stmts []string
	for _, kind := range workload.AllKinds() {
		stmts = append(stmts, gen.Generate(kind))
	}
	for i, q := range stmts {
		for _, v := range []string{
			strings.ToLower(q),
			strings.Join(strings.Fields(q), "  "),
			"/* dashboard */ " + strings.Replace(q, "FROM", "-- note\nFROM", 1),
			q + " ;",
		} {
			f.Add(q, v)
		}
		f.Add(q, stmts[(i+1)%len(stmts)])
	}
	f.Add(`SELECT a AS "s , a" FROM t`, `SELECT a AS s , a FROM t`)
	f.Add(`SELECT a AS "FROM" FROM t`, `SELECT a AS FROM FROM t`)
	f.Add(`SELECT COUNT(*) FROM t WHERE s IN ('A, B')`, `SELECT COUNT(*) FROM t WHERE s IN ('A', 'B')`)

	f.Fuzz(func(t *testing.T, first, second string) {
		qc := qcache.New(qcache.Config{Catalog: cat, Planner: eng.PlanQuery, PlanEntries: 4})
		if _, _, err := qc.Plan("tpch", first, 0); err != nil {
			return
		}
		served, _, err := qc.Plan("tpch", second, 0)
		if err != nil || qc.Snapshot().Plan.Hits == 0 {
			return
		}
		fresh, _, err := qcache.New(qcache.Config{Catalog: cat, Planner: eng.PlanQuery}).Plan("tpch", second, 0)
		if err != nil {
			t.Fatalf("%q was served the plan of %q but does not bind on its own: %v", second, first, err)
		}
		if !reflect.DeepEqual(served, fresh) {
			t.Fatalf("%q was served the plan of %q:\n%s\nits own plan is:\n%s",
				second, first, plan.Explain(served), plan.Explain(fresh))
		}
	})
}
