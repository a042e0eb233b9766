// Benchmarks regenerating every figure and calibrated claim of the paper.
// Each benchmark runs one experiment from README.md's "Paper experiments"
// index and reports its headline numbers as custom metrics; `go test
// -bench=.` therefore reproduces the full evaluation. cmd/pixels-bench
// prints the same experiments as human-readable paper-vs-measured tables.
package pixelsdb

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// runExperiment executes one experiment per benchmark iteration and fails
// the benchmark if the measured shape diverges from the paper's claim.
func runExperiment(b *testing.B, id string) bench.Result {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		for _, e := range bench.Registry() {
			if e.ID == id {
				last = e.Run()
			}
		}
	}
	if last.ID == "" {
		b.Fatalf("experiment %s not found", id)
	}
	if !last.ShapeOK {
		b.Fatalf("experiment %s diverges from the paper: %s", id, last.Shape)
	}
	return last
}

// metric extracts a numeric cell like "2.41x" or "79 (79%)" from a result
// row label.
func metric(r bench.Result, rowPrefix string, col int) float64 {
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], rowPrefix) && col < len(row) {
			s := strings.TrimSuffix(strings.Fields(row[col])[0], "x")
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// BenchmarkE1Survey regenerates Figure 1 (user-study percentages).
func BenchmarkE1Survey(b *testing.B) {
	r := runExperiment(b, "E1")
	b.ReportMetric(metric(r, "Fig 1a", 1), "pct-per-query-levels")
	b.ReportMetric(metric(r, "Fig 1b", 1)+42, "nl-positive-users") // 42+42
}

// BenchmarkE2RelaxedVsImmediate regenerates the Sec. III-B 2-5x claim.
func BenchmarkE2RelaxedVsImmediate(b *testing.B) {
	r := runExperiment(b, "E2")
	b.ReportMetric(metric(r, "ratio", 6), "cost-ratio-x")
}

// BenchmarkE3BestEffortVsImmediate regenerates the Sec. III-B >10x claim.
func BenchmarkE3BestEffortVsImmediate(b *testing.B) {
	r := runExperiment(b, "E3")
	b.ReportMetric(metric(r, "ratio", 5), "cost-ratio-x")
}

// BenchmarkE4Elasticity regenerates the Sec. II elasticity/price claims.
func BenchmarkE4Elasticity(b *testing.B) {
	runExperiment(b, "E4")
}

// BenchmarkE5SpikeAcceleration regenerates the Sec. III-A spike scenario.
func BenchmarkE5SpikeAcceleration(b *testing.B) {
	r := runExperiment(b, "E5")
	b.ReportMetric(metric(r, "p99 speedup", 2), "p99-speedup-x")
}

// BenchmarkE6PriceTable regenerates the $5/$2/$0.5 per TB price table.
func BenchmarkE6PriceTable(b *testing.B) {
	runExperiment(b, "E6")
}

// BenchmarkE7TextToSQL regenerates the text-to-SQL quality table.
func BenchmarkE7TextToSQL(b *testing.B) {
	runExperiment(b, "E7")
}

// BenchmarkE8PendingTimes regenerates the pending-time guarantee table.
func BenchmarkE8PendingTimes(b *testing.B) {
	runExperiment(b, "E8")
}

// BenchmarkE9CostReport regenerates the Report-tab aggregations.
func BenchmarkE9CostReport(b *testing.B) {
	runExperiment(b, "E9")
}

// BenchmarkA1LazyScaleIn regenerates the footnote-3 scale-in ablation.
func BenchmarkA1LazyScaleIn(b *testing.B) {
	runExperiment(b, "A1")
}

// BenchmarkA2GraceSweep regenerates the grace-period sweep ablation.
func BenchmarkA2GraceSweep(b *testing.B) {
	runExperiment(b, "A2")
}

// BenchmarkA3Policies regenerates the scaling-policy comparison ablation.
func BenchmarkA3Policies(b *testing.B) {
	runExperiment(b, "A3")
}

// BenchmarkRepeatQueryTracing re-runs the warm-repeat fast path (plan +
// result cache) with per-query span tracing off and on. The pair is the
// observability overhead budget: tracing must stay within a few percent
// of the untraced path, because it is sold as cheap enough to leave on.
// TestTracingOverheadRepeatQuery asserts the <5% bound when the CI
// bench-smoke job sets PIXELS_OVERHEAD_GATE=1.
func BenchmarkRepeatQueryTracing(b *testing.B) {
	const stmt = "SELECT o_orderpriority, COUNT(*) FROM orders " +
		"GROUP BY o_orderpriority ORDER BY o_orderpriority"
	for _, cfg := range []struct {
		name    string
		tracing bool
	}{
		{"tracing-off", false},
		{"tracing-on", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db, err := Open(Options{PlanCache: true, ResultCacheMB: 8, Tracing: cfg.tracing})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.LoadSampleData("tpch", 0.01); err != nil {
				b.Fatal(err)
			}
			var lastID string
			submit := func() {
				q, err := db.Submit("tpch", stmt, Immediate)
				if err != nil {
					b.Fatal(err)
				}
				<-q.Done()
				if q.Err() != nil {
					b.Fatal(q.Err())
				}
				lastID = q.ID
			}
			submit() // cold fill: every timed iteration below is a warm repeat
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
			b.StopTimer()
			// Sanity: the traced variant must actually record traces and
			// the untraced one must not, or the pair measures nothing.
			if got := db.QueryTrace(lastID) != nil; got != cfg.tracing {
				b.Fatalf("trace recorded = %v with tracing = %v", got, cfg.tracing)
			}
		})
	}
}

// BenchmarkRepeatQuery measures one warm repeat submission of an analytic
// query through the full coordinator path under the three cache
// configurations: no caches (parse + bind + optimize + scan per repeat),
// plan cache only (skip parse/bind/optimize, still scan), and the full
// fast path (result-cache hit, no object-store traffic). The ns/op and
// allocs/op ratio between the first and last sub-benchmark is the
// headline repeat-traffic speedup.
func BenchmarkRepeatQuery(b *testing.B) {
	const stmt = "SELECT o_orderpriority, COUNT(*) FROM orders " +
		"GROUP BY o_orderpriority ORDER BY o_orderpriority"
	configs := []struct {
		name string
		opts Options
	}{
		{"caches-off", Options{}},
		{"plan-cache-only", Options{PlanCache: true}},
		{"plan+result-cache", Options{PlanCache: true, ResultCacheMB: 8}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			db, err := Open(cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.LoadSampleData("tpch", 0.01); err != nil {
				b.Fatal(err)
			}
			submit := func() {
				q, err := db.Submit("tpch", stmt, Immediate)
				if err != nil {
					b.Fatal(err)
				}
				<-q.Done()
				if q.Err() != nil {
					b.Fatal(q.Err())
				}
			}
			submit() // cold fill: every timed iteration below is a warm repeat
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
		})
	}
}
