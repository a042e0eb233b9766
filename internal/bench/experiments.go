package bench

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/objstore"
	"repro/internal/survey"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// Result is one experiment's rendered outcome.
type Result struct {
	ID      string
	Title   string
	Paper   string // what the paper reports
	Headers []string
	Rows    [][]string
	// Shape verdict: does the measured shape match the paper's claim?
	ShapeOK bool
	Shape   string // one-line verdict
}

// Experiment names one runnable experiment.
type Experiment struct {
	ID  string
	Run func() Result
}

// Registry lists every experiment in the order of README.md's "Paper
// experiments" section: the paper's figures and claims (E1–E9), then the
// scheduling ablations (A1–A3).
func Registry() []Experiment {
	return []Experiment{
		{"E1", E1Survey}, {"E2", E2RelaxedVsImmediate}, {"E3", E3BestEffortVsImmediate},
		{"E4", E4Elasticity}, {"E5", E5SpikeAcceleration}, {"E6", E6PriceTable},
		{"E7", E7TextToSQL}, {"E8", E8PendingTimes}, {"E9", E9CostReport},
		{"A1", A1LazyScaleIn}, {"A2", A2GraceSweep}, {"A3", A3Policies},
	}
}

// newRealEngine builds the in-memory engine E6 and E7 run real SQL on.
func newRealEngine() *engine.Engine {
	return engine.New(catalog.New(), objstore.NewMemory())
}

// E1Survey reproduces Figure 1 (user-study preferences).
func E1Survey() Result {
	a, b, rejected, valid := survey.Run(42)
	r := Result{
		ID:      "E1",
		Title:   "Fig. 1: user-study preferences",
		Paper:   "887 sent, 109 valid, 100 prefer serverless; 79% want per-query service levels; 84% would try/use NL interface",
		Headers: []string{"metric", "value"},
	}
	r.Rows = append(r.Rows,
		[]string{"questionnaires sent", fmt.Sprint(survey.Sent)},
		[]string{"valid submissions", fmt.Sprint(valid)},
		[]string{"rejected (too fast/attention/duplicate)", fmt.Sprintf("%d/%d/%d",
			rejected["completed too fast"], rejected["failed attention check"], rejected["duplicate submission"])},
		[]string{"prefer serverless", fmt.Sprint(a.ServerlessUsers)},
		[]string{"Fig 1a: per-query service levels", fmt.Sprintf("%d (%.0f%%)", a.PerQuery, a.PerQueryPct)},
		[]string{"Fig 1b: would use / would try NL", fmt.Sprintf("%d+%d (%.0f%%)", b.WouldUse, b.WouldTry, b.PositivePct)},
	)
	r.ShapeOK = valid == survey.Valid && a.PerQueryPct == 79 && b.PositivePct == 84
	r.Shape = fmt.Sprintf("79%%/84%% recomputed from raw rows: %v", r.ShapeOK)
	return r
}

// costScenario runs the continuous workload at one uniform level.
func costScenario(level billing.Level) SimResult {
	return RunSim(continuousWorkload(level, 77))
}

// E2RelaxedVsImmediate measures the Sec. III-B(2) claim: Relaxed produces
// 2–5× lower resource costs than Immediate under continuous workload.
func E2RelaxedVsImmediate() Result {
	im := costScenario(billing.Immediate)
	rx := costScenario(billing.Relaxed)
	ratio := im.ExtraCost / rx.ExtraCost
	r := Result{
		ID:      "E2",
		Title:   "Sec. III-B: Relaxed vs Immediate resource cost (continuous workload)",
		Paper:   "Relaxed generally produces 2-5x lower resource costs than Immediate",
		Headers: []string{"scenario", "queries", "CF-run", "VM $", "CF $", "baseline $", "extra $", "extra $/TB"},
	}
	for _, s := range []struct {
		name string
		r    SimResult
	}{{"immediate", im}, {"relaxed", rx}} {
		r.Rows = append(r.Rows, []string{
			s.name, fmt.Sprint(s.r.Queries), fmt.Sprint(s.r.CFQueries),
			fmt.Sprintf("%.4f", s.r.VMCost), fmt.Sprintf("%.4f", s.r.CFCost),
			fmt.Sprintf("%.4f", s.r.BaselineCost), fmt.Sprintf("%.4f", s.r.ExtraCost),
			fmt.Sprintf("%.3f", s.r.ExtraCost/(float64(s.r.BytesScanned)/1e12)),
		})
	}
	r.Rows = append(r.Rows, []string{"ratio", "", "", "", "", "", fmt.Sprintf("%.2fx", ratio), ""})
	r.ShapeOK = ratio >= 2 && ratio <= 5 && im.Failed == 0 && rx.Failed == 0
	r.Shape = fmt.Sprintf("immediate/relaxed marginal-cost ratio %.2fx (paper: 2-5x)", ratio)
	return r
}

// E3BestEffortVsImmediate measures the Sec. III-B(3) claim: Best-of-effort
// produces more than one order of magnitude lower resource costs.
func E3BestEffortVsImmediate() Result {
	im := costScenario(billing.Immediate)
	be := costScenario(billing.BestEffort)
	ratio := im.ExtraCost / be.ExtraCost
	r := Result{
		ID:      "E3",
		Title:   "Sec. III-B: Best-of-effort vs Immediate resource cost",
		Paper:   "Best-of-effort generally produces >10x lower resource costs than Immediate",
		Headers: []string{"scenario", "queries", "CF-run", "peak VMs", "baseline $", "extra $", "wall time"},
	}
	for _, s := range []struct {
		name string
		r    SimResult
	}{{"immediate", im}, {"best-of-effort", be}} {
		r.Rows = append(r.Rows, []string{
			s.name, fmt.Sprint(s.r.Queries), fmt.Sprint(s.r.CFQueries), fmt.Sprint(s.r.PeakVMs),
			fmt.Sprintf("%.4f", s.r.BaselineCost), fmt.Sprintf("%.4f", s.r.ExtraCost),
			s.r.WallTime.String(),
		})
	}
	r.Rows = append(r.Rows, []string{"ratio", "", "", "", "", fmt.Sprintf("%.1fx", ratio), ""})
	r.ShapeOK = ratio > 10 && be.CFQueries == 0 && be.Failed == 0
	r.Shape = fmt.Sprintf("immediate/best-effort marginal-cost ratio %.1fx (paper: >10x); best-effort never used CF: %v",
		ratio, be.CFQueries == 0)
	return r
}

// E4Elasticity measures the Sec. II claims: CF reaches hundreds of ready
// workers in ~1s while the VM cluster needs 1-2 minutes, at a 9-24x unit
// price premium.
func E4Elasticity() Result {
	clk := vclock.NewVirtual(simStart)
	cf := cfsim.NewService(clk, cfsim.Config{})
	ready := 0
	for i := 0; i < 200; i++ {
		cf.Request(func(inv *cfsim.Invocation) {
			clk.AfterFunc(inv.StartDelay, func() { ready++ })
		})
	}
	var cfTime time.Duration
	for step := time.Duration(0); step < 10*time.Second; step += 50 * time.Millisecond {
		clk.Advance(50 * time.Millisecond)
		if ready >= 100 {
			cfTime = clk.Now().Sub(simStart)
			break
		}
	}

	clk2 := vclock.NewVirtual(simStart)
	vm := vmsim.NewCluster(clk2, vmsim.Config{SlotsPerVM: 4, BootDelay: 90 * time.Second}, 0)
	vm.Launch(25) // 100 slots
	var vmTime time.Duration
	for step := time.Duration(0); step < 10*time.Minute; step += time.Second {
		clk2.Advance(time.Second)
		if vm.FreeSlots() >= 100 {
			vmTime = clk2.Now().Sub(simStart)
			break
		}
	}

	prices := billing.Default()
	ratio := prices.UnitPriceRatio()
	r := Result{
		ID:      "E4",
		Title:   "Sec. II: elasticity and unit price of CF vs VM",
		Paper:   "CF creates hundreds of workers in 1 second vs 1-2 minutes for VMs, at 9-24x higher resource unit prices",
		Headers: []string{"tier", "time to 100 ready workers", "unit price ($/slot-second)"},
	}
	r.Rows = append(r.Rows,
		[]string{"cloud functions", cfTime.String(), fmt.Sprintf("%.8f", prices.CFPerGBSecond*prices.CFMemoryGB)},
		[]string{"VM cluster", vmTime.String(), fmt.Sprintf("%.8f", prices.VMPerSecond/float64(prices.VMSlots))},
		[]string{"ratio", fmt.Sprintf("%.0fx faster", float64(vmTime)/float64(cfTime)), fmt.Sprintf("%.1fx pricier", ratio)},
	)
	r.ShapeOK = cfTime <= 2*time.Second && vmTime >= time.Minute && vmTime <= 2*time.Minute &&
		ratio >= 9 && ratio <= 24
	r.Shape = fmt.Sprintf("CF %v vs VM %v to 100 workers; unit price ratio %.1fx (band 9-24x)", cfTime, vmTime, ratio)
	return r
}

// spikeLatency drives the Sec. III-A spike scenario (shared with
// examples/spike) and returns p50/p99 latency.
func spikeLatency(cfAllowed bool) (p50, p99 time.Duration, invocations int64) {
	clk := vclock.NewVirtual(simStart)
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 4, BootDelay: 90 * time.Second}, 1)
	cf := cfsim.NewService(clk, cfsim.Config{})
	ledger := billing.NewLedger()
	ex := core.NewSimExecutor(clk, core.SimExecutorConfig{})
	coord := core.NewCoordinator(clk, core.Config{GracePeriod: 5 * time.Minute, CFMaxParts: 8}, cluster, cf, ex, ledger)
	mgr := autoscale.NewManager(clk, cluster,
		&autoscale.TargetUtilization{SlotsPerVM: 4, Target: 0.7, MinVMs: 1, MaxVMs: 12, HoldTicks: 4},
		coord.Metrics)
	mgr.Start(10 * time.Second)
	defer mgr.Stop()

	level := billing.Immediate
	if !cfAllowed {
		level = billing.BestEffort // never CF: VM-only behaviour under the spike
	}
	var queries []*core.Query
	for i := 0; i < 60; i++ {
		queries = append(queries, coord.Submit("spike", level, core.SimPayload{Bytes: 4e9}))
		clk.Advance(2 * time.Second)
	}
	for i := 0; i < 120; i++ {
		if fin, failed := coord.Counts(); fin+failed >= len(queries) {
			break
		}
		clk.Advance(time.Minute)
	}

	var lats []time.Duration
	for _, q := range queries {
		sub, _, end := q.Times()
		lats = append(lats, end.Sub(sub))
	}
	st := pendingStats(lats)
	return st.P50, st.P99, cf.Usage().Invocations
}

// E5SpikeAcceleration measures CF acceleration during the VM scale-out lag.
func E5SpikeAcceleration() Result {
	p50cf, p99cf, inv := spikeLatency(true)
	p50vm, p99vm, _ := spikeLatency(false)
	speedup := float64(p99vm) / float64(p99cf)
	r := Result{
		ID:      "E5",
		Title:   "Sec. III-A: CF acceleration during a workload spike",
		Paper:   "CFs execute new queries when the VM cluster cannot scale out in time ([7])",
		Headers: []string{"engine", "p50 latency", "p99 latency", "CF invocations"},
	}
	r.Rows = append(r.Rows,
		[]string{"with CF acceleration", p50cf.Round(time.Millisecond).String(), p99cf.Round(time.Millisecond).String(), fmt.Sprint(inv)},
		[]string{"VM-only", p50vm.Round(time.Millisecond).String(), p99vm.Round(time.Millisecond).String(), "0"},
		[]string{"p99 speedup", "", fmt.Sprintf("%.1fx", speedup), ""},
	)
	r.ShapeOK = speedup >= 2 && inv > 0
	r.Shape = fmt.Sprintf("CF removes the scale-lag latency cliff: p99 %.1fx lower", speedup)
	return r
}

// E6PriceTable verifies the listed prices end-to-end on the real engine:
// $5 / $2 / $0.5 per TB scanned at the three levels.
func E6PriceTable() Result {
	eng := newRealEngine()
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.005, Seed: 3}); err != nil {
		panic(err)
	}
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 4}, 2)
	cf := cfsim.NewService(clk, cfsim.Config{})
	ledger := billing.NewLedger()
	coord := core.NewCoordinator(clk, core.Config{}, cluster, cf,
		&core.PlannedExecutor{Engine: eng}, ledger)

	r := Result{
		ID:      "E6",
		Title:   "Sec. III-B: listed prices per service level",
		Paper:   "immediate $5/TB-scan (same as Athena), relaxed $2/TB (40%), best-of-effort $0.5/TB (10%)",
		Headers: []string{"level", "bytes scanned", "list price $", "effective $/TB", "expected $/TB"},
	}
	want := map[billing.Level]float64{billing.Immediate: 5, billing.Relaxed: 2, billing.BestEffort: 0.5}
	ok := true
	for _, lev := range billing.Levels() {
		node, err := eng.PlanQuery("tpch", mustSelect("SELECT SUM(l_extendedprice) FROM lineitem"))
		if err != nil {
			panic(err)
		}
		q := coord.Submit("SELECT SUM(l_extendedprice) FROM lineitem", lev, core.PlanPayload{Node: node})
		<-q.Done()
		var bill billing.QueryBill
		for _, b := range ledger.All() {
			if b.QueryID == q.ID {
				bill = b
			}
		}
		effective := bill.ListPrice / (float64(bill.BytesScanned) / 1e12)
		if diff := effective - want[lev]; diff > 1e-9 || diff < -1e-9 {
			ok = false
		}
		r.Rows = append(r.Rows, []string{
			lev.String(), fmt.Sprint(bill.BytesScanned),
			fmt.Sprintf("%.12f", bill.ListPrice),
			fmt.Sprintf("%.2f", effective), fmt.Sprintf("%.2f", want[lev]),
		})
	}
	r.ShapeOK = ok
	r.Shape = fmt.Sprintf("effective $/TB equals the demo's price table: %v", ok)
	return r
}

// E7TextToSQL evaluates both translators on the mini-Spider suite.
func E7TextToSQL() Result {
	eng := newRealEngine()
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.005, Seed: 4}); err != nil {
		panic(err)
	}
	schema, err := nl2sql.SchemaFromCatalog(eng.Catalog(), "tpch")
	if err != nil {
		panic(err)
	}
	cases := nl2sql.Benchmark()
	tmpl := nl2sql.Evaluate(&nl2sql.Template{}, cases, schema, eng, "tpch")
	codes := nl2sql.Evaluate(nl2sql.NewCodeSim(nil), cases, schema, eng, "tpch")
	r := Result{
		ID:      "E7",
		Title:   "Sec. II(3): text-to-SQL translation quality (mini-Spider suite)",
		Paper:   "CodeS shows SOTA performance on Spider/BIRD; the service is pluggable behind a wrapper interface",
		Headers: []string{"translator", "cases", "translated", "exact match", "execution match"},
	}
	for _, s := range []nl2sql.Score{tmpl, codes} {
		r.Rows = append(r.Rows, []string{
			s.Translator, fmt.Sprint(s.Total), fmt.Sprint(s.Translated),
			fmt.Sprintf("%d (%.0f%%)", s.ExactMatch, s.ExactPct()),
			fmt.Sprintf("%d (%.0f%%)", s.ExecMatch, s.ExecPct()),
		})
	}
	r.ShapeOK = tmpl.ExactPct() >= 70 && codes.ExactPct() >= 70
	r.Shape = fmt.Sprintf("both plug-in translators exceed 70%% exact match (template %.0f%%, codes-sim %.0f%%)",
		tmpl.ExactPct(), codes.ExactPct())
	return r
}

// E8PendingTimes verifies the pending-time semantics of the three levels
// under a mixed continuous workload, on the scheduler every served query
// runs: Coordinator.Submit, its tier queues and its one arrival clock
// (without queue bounds — a zero core.Config — so nothing is shed).
func E8PendingTimes() Result {
	cfg := continuousWorkload(billing.Immediate, 99)
	cfg.Levels = workload.NewLevelMix(nil, 99)
	res := RunSim(cfg)
	grace := cfg.Core.GracePeriod
	r := Result{
		ID:      "E8",
		Title:   "Sec. III-B: pending-time guarantees per level (the scheduler every served query runs)",
		Paper:   "each level only bounds pending time: immediate starts at once, relaxed within the grace period, best-of-effort unbounded",
		Headers: []string{"level", "queries", "p50 pending", "p99 pending", "max pending", "bound"},
	}
	bounds := map[billing.Level]string{
		billing.Immediate:  "0",
		billing.Relaxed:    grace.String(),
		billing.BestEffort: "none",
	}
	ok := true
	for _, lev := range billing.Levels() {
		st := res.Pending[lev]
		r.Rows = append(r.Rows, []string{
			lev.String(), fmt.Sprint(st.Count),
			st.P50.Round(time.Millisecond).String(), st.P99.Round(time.Millisecond).String(),
			st.Max.Round(time.Millisecond).String(), bounds[lev],
		})
	}
	if res.Pending[billing.Immediate].Max != 0 {
		ok = false
	}
	if res.Pending[billing.Relaxed].Max > grace {
		ok = false
	}
	if res.Failed > 0 || res.Finished != res.Queries {
		ok = false
	}
	r.ShapeOK = ok
	r.Shape = fmt.Sprintf("immediate max pending %v (=0), relaxed max %v (≤ %v), all %d queries finished",
		res.Pending[billing.Immediate].Max, res.Pending[billing.Relaxed].Max, grace, res.Finished)
	return r
}

// E9CostReport exercises the Report tab aggregations end-to-end (Sec. IV-B).
func E9CostReport() Result {
	cfg := continuousWorkload(billing.Immediate, 123)
	cfg.Duration = 30 * time.Minute
	cfg.Levels = workload.NewLevelMix(nil, 123)
	res := RunSim(cfg)

	timeline := res.Ledger.Timeline(simStart, simStart.Add(cfg.Duration), time.Minute)
	inTimeline := 0
	for _, p := range timeline {
		inTimeline += p.Total
	}
	mid := simStart.Add(cfg.Duration / 2)
	brushed := res.Ledger.Between(simStart, mid)
	sum := res.Ledger.Summary()

	r := Result{
		ID:      "E9",
		Title:   "Sec. IV-B: cost-visibility report (timeline, per-query perf/cost, brushing)",
		Paper:   "the Report tab charts query count per minute, per-query performance and per-query cost, brush-linked",
		Headers: []string{"aggregation", "value"},
	}
	r.Rows = append(r.Rows,
		[]string{"queries executed", fmt.Sprint(res.Queries)},
		[]string{"timeline buckets (1 min)", fmt.Sprint(len(timeline))},
		[]string{"queries on timeline", fmt.Sprint(inTimeline)},
		[]string{"brushed first half", fmt.Sprint(len(brushed))},
		[]string{"levels in summary", fmt.Sprint(len(sum))},
		[]string{"list revenue $", fmt.Sprintf("%.6f", res.ListRevenue)},
	)
	r.ShapeOK = inTimeline == res.Queries && len(brushed) > 0 && len(brushed) < res.Queries && len(sum) >= 2
	r.Shape = fmt.Sprintf("timeline covers all %d queries; brush selects a strict subset (%d)", res.Queries, len(brushed))
	return r
}

// A1LazyScaleIn is the footnote-3 ablation: lazy vs eager scale-in on a
// periodically bursty workload.
func A1LazyScaleIn() Result {
	run := func(hold int) SimResult {
		cfg := continuousWorkload(billing.Relaxed, 55)
		// Recurring spikes with short gaps: scaling in during a gap means
		// paying the boot lag again on the next spike — footnote 3's
		// "scaling-in right before the next workload spike".
		cfg.Arrivals = workload.NewBurst(0.02, 0.8, 5*time.Minute, 2*time.Minute, 55)
		cfg.Core.GracePeriod = 2 * time.Minute
		cfg.Policy = &autoscale.TargetUtilization{
			SlotsPerVM: 4, Target: 0.7, MinVMs: 1, MaxVMs: 32, HoldTicks: hold,
		}
		return RunSim(cfg)
	}
	lazy := run(16) // 4 minutes of sustained idleness before shrinking
	eager := run(1)
	r := Result{
		ID:      "A1",
		Title:   "Ablation (footnote 3): lazy vs eager scale-in",
		Paper:   "scaling in right before the next workload spike is avoided by a lazy-scaling-in policy",
		Headers: []string{"policy", "total $", "CF-run queries", "relaxed p50 pending", "relaxed p99 pending", "peak VMs"},
	}
	for _, s := range []struct {
		name string
		r    SimResult
	}{{"lazy (hold 16 ticks)", lazy}, {"eager (hold 1)", eager}} {
		r.Rows = append(r.Rows, []string{
			s.name, fmt.Sprintf("%.4f", s.r.TotalCost), fmt.Sprint(s.r.CFQueries),
			s.r.Pending[billing.Relaxed].P50.Round(time.Second).String(),
			s.r.Pending[billing.Relaxed].P99.Round(time.Second).String(), fmt.Sprint(s.r.PeakVMs),
		})
	}
	// Lazy keeps capacity across spikes: fewer grace expiries into CF
	// and/or lower queueing.
	lazyPend := lazy.Pending[billing.Relaxed]
	eagerPend := eager.Pending[billing.Relaxed]
	r.ShapeOK = lazy.CFQueries < eager.CFQueries ||
		(lazy.CFQueries == eager.CFQueries && lazyPend.P50 <= eagerPend.P50)
	r.Shape = fmt.Sprintf("lazy: %d CF-run, p50 pending %v; eager: %d CF-run, p50 pending %v",
		lazy.CFQueries, lazyPend.P50.Round(time.Millisecond),
		eager.CFQueries, eagerPend.P50.Round(time.Millisecond))
	return r
}

// A2GraceSweep sweeps the Relaxed grace period — the bounded wait of the
// Relaxed tier's queue, at the end of which its timer places the query on
// CF.
func A2GraceSweep() Result {
	r := Result{
		ID:      "A2",
		Title:   "Ablation: grace-period sweep for Relaxed",
		Paper:   "a grace period longer than the VM scale-out time keeps relaxed queries off the expensive CFs",
		Headers: []string{"grace", "total $", "CF-run", "max pending", "$/TB"},
	}
	boot := 90 * time.Second
	var costAtZero, costAtFive float64
	for _, grace := range []time.Duration{0, 30 * time.Second, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute} {
		cfg := continuousWorkload(billing.Relaxed, 88)
		cfg.Core.GracePeriod = grace
		if grace == 0 {
			cfg.Core.GracePeriod = time.Millisecond // "no grace"
		}
		res := RunSim(cfg)
		if grace == 0 {
			costAtZero = res.TotalCost
		}
		if grace == 5*time.Minute {
			costAtFive = res.TotalCost
		}
		r.Rows = append(r.Rows, []string{
			grace.String(), fmt.Sprintf("%.4f", res.TotalCost), fmt.Sprint(res.CFQueries),
			res.Pending[billing.Relaxed].Max.Round(time.Second).String(),
			fmt.Sprintf("%.3f", res.CostPerTB),
		})
	}
	r.ShapeOK = costAtFive < costAtZero
	r.Shape = fmt.Sprintf("grace > boot delay (%v) cuts cost: $%.4f at 5m vs $%.4f at 0", boot, costAtFive, costAtZero)
	return r
}

// A3Policies compares scaling policies under a diurnal workload.
func A3Policies() Result {
	run := func(p autoscale.Policy) SimResult {
		cfg := SimConfig{
			Duration:    4 * time.Hour,
			Arrivals:    workload.NewDiurnal(0.25, 0.9, 4*time.Hour, 66),
			Levels:      workload.UniformLevel{Level: billing.Relaxed},
			Seed:        66,
			MeanQueryGB: 4,
			InitialVMs:  1,
			VM:          vmsim.Config{SlotsPerVM: 4, BootDelay: 90 * time.Second, Seed: 66},
			CF:          cfsim.Config{Seed: 66},
			Core:        core.Config{GracePeriod: 5 * time.Minute, CFMaxParts: 8},
			Policy:      p,
		}
		return RunSim(cfg)
	}
	lazy := run(&autoscale.TargetUtilization{SlotsPerVM: 4, Target: 0.7, MinVMs: 1, MaxVMs: 32, HoldTicks: 4})
	queue := run(&autoscale.QueueDepth{SlotsPerVM: 4, PerVM: 4, MinVMs: 1, MaxVMs: 32})
	static := run(&autoscale.Static{N: 8})
	r := Result{
		ID:      "A3",
		Title:   "Ablation: scaling policies under diurnal load",
		Paper:   "the scaling policy is plug-able and configurable (Sec. III-A)",
		Headers: []string{"policy", "total $", "CF-run", "relaxed p99 pending", "peak VMs"},
	}
	for _, s := range []struct {
		name string
		r    SimResult
	}{{"target-utilization/lazy", lazy}, {"queue-depth", queue}, {"static-8", static}} {
		r.Rows = append(r.Rows, []string{
			s.name, fmt.Sprintf("%.4f", s.r.TotalCost), fmt.Sprint(s.r.CFQueries),
			s.r.Pending[billing.Relaxed].P99.Round(time.Second).String(), fmt.Sprint(s.r.PeakVMs),
		})
	}
	// Reactive policies must beat static provisioning on cost under a
	// strongly diurnal load.
	r.ShapeOK = lazy.TotalCost < static.TotalCost
	r.Shape = fmt.Sprintf("reactive $%.4f vs static $%.4f", lazy.TotalCost, static.TotalCost)
	return r
}

func mustSelect(q string) *sqlSelect {
	stmt, err := sqlParse(q)
	if err != nil {
		panic(err)
	}
	return stmt
}
