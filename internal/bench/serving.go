package bench

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/qcache"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// ServingDuration is the A9 load window (package var so bench-smoke and
// tests can shorten it).
var ServingDuration = 2 * time.Second

// ServingLatencyGate arms A9's wall-clock half (immediate p95 within
// max(2× uncontended, 50ms)). pixels-bench leaves it on; `go test ./...`
// turns it off unless PIXELS_OVERHEAD_GATE=1, because sibling packages'
// tests share the host's cores and the bound then measures them, not the
// admission path. The count-based half (best-effort sheds, every shed
// carries Retry-After) always gates.
var ServingLatencyGate = true

// A9ServingLoad drives the real HTTP serving path closed-loop: engine,
// coordinator, admission control and the /v1 API under a Poisson/Burst
// arrival mix across all three tiers, with the burst offered at >=2x the
// admission slot capacity. Shape: the best-effort tier sheds (429 +
// Retry-After) while the immediate tier's p95 stays within 2x its
// uncontended p95 — overload protection is measured, not asserted.
func A9ServingLoad() Result {
	eng := engine.New(catalog.New(), objstore.NewMetered(objstore.NewMemory()))
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.05, Seed: 11, RowsPerFile: 8192}); err != nil {
		panic(err)
	}
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 8}, 2)
	cf := cfsim.NewService(clk, cfsim.Config{})
	ledger := billing.NewLedger()
	// Serial per-query execution: the admission slots — not the engine's
	// intra-query fan-out — govern how much CPU concurrent queries take,
	// so tier isolation is attributable to admission.
	coord := core.NewCoordinator(clk, core.Config{GracePeriod: 2 * time.Second}, cluster, cf,
		&core.PlannedExecutor{Engine: eng, Parallelism: 1}, ledger)

	// Admission is the bottleneck under test: a few serving slots sized to
	// the host (slots beyond the CPU count would just time-slice and
	// inflate every tier's exec), a tiny best-effort queue (sheds first),
	// bounded waits for paying tiers.
	ncpu := runtime.GOMAXPROCS(0)
	slots := map[billing.Level]int{
		billing.Immediate:  1 + ncpu/4,
		billing.Relaxed:    1 + ncpu/4,
		billing.BestEffort: 1,
	}
	ctl := admission.New(clk, admission.Config{
		Slots:    slots,
		QueueCap: map[billing.Level]int{billing.Immediate: 32, billing.Relaxed: 256, billing.BestEffort: 2},
		MaxWait: map[billing.Level]time.Duration{
			billing.Immediate: 2 * time.Second, billing.Relaxed: 10 * time.Second, billing.BestEffort: 250 * time.Millisecond,
		},
		Priority: admission.PriorityStrict,
	})
	srv := httptest.NewServer((&server.Server{
		Engine: eng, Coord: coord, Clock: clk, DefaultDB: "tpch", Admission: ctl,
		QCache: qcache.New(qcache.Config{Catalog: eng.Catalog(), Planner: eng.PlanQuery}),
	}).Handler())
	defer srv.Close()
	client := rover.NewClient(srv.URL)

	// A join keeps per-query service time in the tens of milliseconds so
	// the admission slots — not HTTP handling — are the bottleneck.
	const query = "SELECT o_orderpriority, COUNT(*), SUM(l_extendedprice) FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderpriority"

	var shedNoRetry atomic.Int64
	do := func(lev billing.Level, deadline time.Duration) workload.Outcome {
		start := time.Now()
		resp, err := client.SubmitV1("tpch", query, lev.String(), 0, deadline)
		if err != nil {
			if ae, ok := rover.IsShed(err); ok {
				if ae.RetryAfter <= 0 {
					shedNoRetry.Add(1)
				}
				return workload.Outcome{Status: "shed", Latency: time.Since(start), RetryAfter: ae.RetryAfter}
			}
			return workload.Outcome{Status: "error", Latency: time.Since(start)}
		}
		info, err := client.WaitTerminal(resp.ID, 30*time.Second)
		if err != nil {
			return workload.Outcome{Status: "error", Latency: time.Since(start)}
		}
		out := workload.Outcome{Status: info.Status, Latency: time.Since(start)}
		if info.Status == "finished" {
			if res, err := client.ResultV1(resp.ID); err == nil {
				// Latency the serving stack is accountable for: admission
				// queue wait + coordinator pending + execution. The
				// client-observed wall time also includes this load
				// generator's own polling backlog (it shares the host with
				// the server), which admission cannot control.
				out.Latency = time.Duration(res.QueueWaitMs+res.PendingMs+res.ExecMs) * time.Millisecond
				if res.DeadlineHit != nil {
					out.DeadlineKnown, out.DeadlineHit = true, *res.DeadlineHit
				}
			}
		}
		return out
	}

	// Uncontended baseline: serial immediate queries on the idle stack
	// (after a short warmup) give the reference p95.
	for i := 0; i < 5; i++ {
		do(billing.Immediate, 0)
	}
	var baseline []workload.Outcome
	for i := 0; i < 20; i++ {
		baseline = append(baseline, do(billing.Immediate, 0))
	}
	base := workload.Summarize(baseline)[0]
	execSec := base.P50.Seconds()
	if execSec < 0.005 {
		// Floor the service-time estimate: below this, HTTP and polling
		// overhead dominate and rate sizing would just melt the host.
		execSec = 0.005
	}
	// Offered spike load, sized from the measured service time so the
	// burst lands at >=2.5x the 5-slot capacity on any host.
	totalSlots := slots[billing.Immediate] + slots[billing.Relaxed] + slots[billing.BestEffort]
	capacity := float64(totalSlots) / execSec // queries/sec the slots can serve
	beSpike, rxSpike := 1.5*capacity, 1.0*capacity
	immRate := 0.15 * float64(slots[billing.Immediate]) / execSec // ~15% of its dedicated slots

	stats := workload.Drive(workload.DriverConfig{
		Duration: ServingDuration,
		Tiers: []workload.TierLoad{
			{Level: billing.Immediate, Arrivals: workload.NewPoisson(immRate, 21), MaxInFlight: 4},
			{Level: billing.Relaxed, Arrivals: workload.NewBurst(0.2*capacity, rxSpike, 500*time.Millisecond, 200*time.Millisecond, 22), MaxInFlight: 16},
			{Level: billing.BestEffort, Arrivals: workload.NewBurst(0.3*capacity, beSpike, 500*time.Millisecond, 200*time.Millisecond, 23), MaxInFlight: 8},
		},
	}, do)

	r := Result{
		ID:      "A9",
		Title:   "Serving under overload: admission control on the live HTTP path",
		Paper:   "flexible service levels need admission: cheap tiers shed first (429 + Retry-After) while paid tiers keep their latency contract under burst overload",
		Headers: []string{"tier", "sent", "finished", "shed", "shed rate", "deadline hit", "p50*", "p95*", "p99*"},
	}
	var immStats, beStats workload.TierStats
	for _, st := range stats {
		if st.Level == billing.Immediate {
			immStats = st
		}
		if st.Level == billing.BestEffort {
			beStats = st
		}
		r.Rows = append(r.Rows, []string{
			st.Level.String(), fmt.Sprint(st.Sent), fmt.Sprint(st.Finished), fmt.Sprint(st.Shed),
			fmt.Sprintf("%.0f%%", 100*st.ShedRate),
			fmt.Sprintf("%d/%d", st.DeadlineHits, st.DeadlineKnown),
			st.P50.Round(time.Millisecond).String(), st.P95.Round(time.Millisecond).String(),
			st.P99.Round(time.Millisecond).String(),
		})
	}
	r.Rows = append(r.Rows,
		[]string{"(uncontended imm)", fmt.Sprint(base.Sent), fmt.Sprint(base.Finished), "0", "0%", "",
			base.P50.Round(time.Millisecond).String(), base.P95.Round(time.Millisecond).String(),
			base.P99.Round(time.Millisecond).String()},
		[]string{"(offered burst)", fmt.Sprintf("%.1fx capacity", (beSpike+rxSpike+immRate)/capacity), "", "", "", "", "", "", ""},
		[]string{"(*server-side: queue wait + pending + exec)", "", "", "", "", "", "", "", ""},
	)

	// Jitter floor for sub-50ms baselines: on tiny sample data scheduling
	// noise dominates the 2x band.
	bound := 2 * base.P95
	if bound < 50*time.Millisecond {
		bound = 50 * time.Millisecond
	}
	immProtected := immStats.Sent > 0 && (immStats.P95 <= bound || !ServingLatencyGate)
	shedOK := beStats.Shed > 0 && shedNoRetry.Load() == 0
	r.ShapeOK = immProtected && shedOK
	r.Shape = fmt.Sprintf("best-effort shed %d (all with Retry-After: %v); immediate p95 %s vs uncontended %s (bound %s): %v",
		beStats.Shed, shedNoRetry.Load() == 0, immStats.P95.Round(time.Millisecond),
		base.P95.Round(time.Millisecond), bound.Round(time.Millisecond), r.ShapeOK)
	return r
}
