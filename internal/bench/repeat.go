package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/qcache"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// A10RepeatTraffic measures the repeat-traffic fast path end-to-end: M
// distinct queries submitted K times each through the coordinator, with
// the plan + result caches off and on. Shape gates (the latency gate is
// skipped under the race detector, like A9):
//
//   - warm traffic hits the result cache 100% of the time;
//   - rows are bit-identical between the cached and uncached runs;
//   - the ledger bills every cache hit zero bytes and zero list price, so
//     the cached run's total billed bytes equal one cold round — warm
//     repeats add nothing;
//   - warm (cached) p50 beats the uncached repeat p50.
func A10RepeatTraffic() Result {
	queries := []string{
		"SELECT o_orderpriority, COUNT(*) FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
		"SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_totalprice > 1000",
		"SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
		"SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment",
		"SELECT o_custkey, SUM(o_totalprice) FROM orders WHERE o_orderstatus = 'O' GROUP BY o_custkey ORDER BY SUM(o_totalprice) DESC LIMIT 10",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '1995-01-01' AND l_discount IN (0.05, 0.06, 0.07)",
	}
	const rounds = 5 // 1 cold + 4 warm

	type runOut struct {
		rows        []string // one fingerprint per distinct query
		coldLat     []time.Duration
		warmLat     []time.Duration
		cacheHits   int
		billedBytes int64
		coldBytes   int64
		hitsBilled  bool // every cache-hit bill carries zero bytes + price
	}

	run := func(withCache bool) runOut {
		eng := engine.New(catalog.New(), objstore.NewMetered(newRealStore()))
		eng.SetVectorized(!Interpreted)
		if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.05, Seed: 11, RowsPerFile: 8192}); err != nil {
			panic(err)
		}
		clk := vclock.NewReal()
		cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 8}, 2)
		cf := cfsim.NewService(clk, cfsim.Config{})
		ledger := billing.NewLedger()
		// Both runs plan through qcache.Plan, exactly like pixelsdb.Submit:
		// with the cache levels off it is parse + bind + optimize per
		// submission and nothing is retained.
		qcfg := qcache.Config{Catalog: eng.Catalog(), Planner: eng.PlanQuery}
		if withCache {
			mb := ResultCacheMB
			if mb <= 0 {
				mb = 8
			}
			qcfg.PlanEntries, qcfg.ResultBytes = 256, int64(mb)<<20
		}
		qc := qcache.New(qcfg)
		cfg := core.Config{GracePeriod: time.Second}
		if rc := qc.Results(); rc != nil {
			cfg.ResultCache = rc
		}
		coord := core.NewCoordinator(clk, cfg, cluster, cf,
			&core.PlannedExecutor{Engine: eng, Parallelism: VMParallelism}, ledger)

		submit := func(stmt string) *core.Query {
			node, rk, err := qc.Plan("tpch", stmt, 0)
			if err != nil {
				panic(err)
			}
			return coord.Submit(stmt, billing.Immediate, core.PlanPayload{Node: node, ResultKey: rk})
		}

		var out runOut
		for round := 0; round < rounds; round++ {
			for qi, stmt := range queries {
				start := time.Now()
				q := submit(stmt)
				<-q.Done()
				lat := time.Since(start)
				if q.Err() != nil {
					panic(fmt.Sprintf("A10 query %q: %v", stmt, q.Err()))
				}
				if round == 0 {
					out.coldLat = append(out.coldLat, lat)
					out.rows = append(out.rows, fmt.Sprint(q.Result().Rows))
				} else {
					out.warmLat = append(out.warmLat, lat)
					if got := fmt.Sprint(q.Result().Rows); got != out.rows[qi] {
						panic(fmt.Sprintf("A10: warm rows diverge for %q", stmt))
					}
				}
			}
		}
		out.cacheHits = coord.CacheHitCount()
		out.hitsBilled = true
		for _, b := range ledger.All() {
			out.billedBytes += b.BytesScanned
			if b.CacheHit && (b.BytesScanned != 0 || b.ListPrice != 0) {
				out.hitsBilled = false
			}
		}
		for i := range queries {
			// Bills are submit-ordered; the first M are the cold round.
			out.coldBytes += ledger.All()[i].BytesScanned
		}
		return out
	}

	off := run(false)
	on := run(true)

	warmTarget := len(queries) * (rounds - 1)
	p := func(lats []time.Duration, q float64) time.Duration {
		s := append([]time.Duration(nil), lats...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[int(float64(len(s)-1)*q)]
	}

	r := Result{
		ID:      "A10",
		Title:   "Repeat-traffic fast path: plan + result cache vs cold planning",
		Paper:   "repeat analytic dashboards re-issue identical queries; a generation-keyed result cache answers them without scanning, so warm repeats bill zero bytes and return in sub-query-execution time",
		Headers: []string{"config", "queries", "hit rate", "cold p50", "warm p50", "warm p95", "billed bytes"},
	}
	fmtRow := func(name string, o runOut, hits int) []string {
		rate := "-"
		if name != "caches off" {
			rate = fmt.Sprintf("%d/%d", hits, warmTarget)
		}
		return []string{
			name, fmt.Sprint(len(o.coldLat) + len(o.warmLat)), rate,
			p(o.coldLat, 0.5).Round(time.Microsecond).String(),
			p(o.warmLat, 0.5).Round(time.Microsecond).String(),
			p(o.warmLat, 0.95).Round(time.Microsecond).String(),
			fmt.Sprint(o.billedBytes),
		}
	}
	r.Rows = append(r.Rows, fmtRow("caches off", off, 0), fmtRow("plan+result cache", on, on.cacheHits))

	rowsMatch := true
	for i := range off.rows {
		if off.rows[i] != on.rows[i] {
			rowsMatch = false
		}
	}
	hitRateOK := on.cacheHits == warmTarget
	// Warm repeats add zero billed bytes: the cached run's ledger total is
	// exactly one cold round (which itself matches the uncached cold round).
	billingOK := on.hitsBilled && on.billedBytes == on.coldBytes && on.coldBytes == off.coldBytes
	latencyOK := p(on.warmLat, 0.5) < p(off.warmLat, 0.5)
	if raceEnabled {
		// Race instrumentation skews wall-clock comparisons; the
		// correctness gates still apply.
		latencyOK = true
	}
	r.ShapeOK = hitRateOK && rowsMatch && billingOK && latencyOK
	r.Shape = fmt.Sprintf("warm hit rate %d/%d; rows identical: %v; hits billed zero and warm bytes free: %v; warm p50 %s vs uncached %s: %v",
		on.cacheHits, warmTarget, rowsMatch, billingOK,
		p(on.warmLat, 0.5).Round(time.Microsecond), p(off.warmLat, 0.5).Round(time.Microsecond), r.ShapeOK)
	return r
}
