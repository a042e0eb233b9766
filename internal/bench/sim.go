// Package bench implements the experiment harness: one function per paper
// figure/claim (see README.md, "Paper experiments"), all runnable through
// cmd/pixels-bench and the root bench_test.go.
//
// Experiments involving hours of cluster time run the real scheduler,
// autoscaler and billing code on the virtual clock with the modeled
// executor, so they are deterministic and complete in milliseconds.
package bench

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/autoscale"
	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// simStart is the fixed virtual epoch of every simulation.
var simStart = time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)

// LevelPicker chooses a service level per query.
type LevelPicker interface{ Pick() billing.Level }

// SimConfig describes one continuous-workload simulation.
type SimConfig struct {
	// Duration of the arrival window; the simulation then drains.
	Duration time.Duration
	// Arrivals generates inter-arrival gaps.
	Arrivals workload.ArrivalProcess
	// Levels assigns a service level per query.
	Levels LevelPicker
	// Seed drives query sizing.
	Seed int64
	// MeanQueryGB is the mean scanned volume per query (log-normal).
	MeanQueryGB float64

	// Cluster and scheduler knobs.
	InitialVMs int
	VM         vmsim.Config
	CF         cfsim.Config
	Core       core.Config
	// Exec overrides the modeled execution throughputs.
	Exec core.SimExecutorConfig
	// Policy for the autoscaler; nil uses lazy target-utilization.
	Policy autoscale.Policy
	// ScaleInterval is the autoscaler tick (default 15s).
	ScaleInterval time.Duration
}

// SimResult aggregates one run.
type SimResult struct {
	Queries  int
	Finished int
	Failed   int

	BytesScanned int64
	CFQueries    int // queries that used CF

	// Fleet-level infrastructure cost over the whole run.
	VMCost    float64
	CFCost    float64
	S3Cost    float64
	TotalCost float64
	// BaselineCost is what the always-on minimum cluster costs over the
	// same wall time; ExtraCost = TotalCost - BaselineCost is the marginal
	// spend the workload caused — the quantity Section III-B's 2-5x and
	// >10x claims compare ("best-of-effort ... produces very little extra
	// costs").
	BaselineCost float64
	ExtraCost    float64

	// Normalized costs.
	CostPerQuery float64
	CostPerTB    float64

	// WallTime is the simulated time from start until the last query
	// completed.
	WallTime time.Duration

	// Pending-time distribution per level.
	Pending map[billing.Level]PendingStats

	// ListRevenue is the sum of listed prices (what users paid).
	ListRevenue float64

	Ledger *billing.Ledger

	// Peak cluster size observed (running+booting).
	PeakVMs int
}

// PendingStats summarizes queue times for one level.
type PendingStats struct {
	Count int
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
	Mean  time.Duration
}

// RunSim executes the simulation to completion.
func RunSim(cfg SimConfig) SimResult {
	if cfg.ScaleInterval <= 0 {
		cfg.ScaleInterval = 15 * time.Second
	}
	if cfg.MeanQueryGB <= 0 {
		cfg.MeanQueryGB = 2
	}
	clk := vclock.NewVirtual(simStart)
	cluster := vmsim.NewCluster(clk, cfg.VM, cfg.InitialVMs)
	cf := cfsim.NewService(clk, cfg.CF)
	ledger := billing.NewLedger()
	ex := core.NewSimExecutor(clk, cfg.Exec)
	coord := core.NewCoordinator(clk, cfg.Core, cluster, cf, ex, ledger)

	policy := cfg.Policy
	if policy == nil {
		policy = &autoscale.TargetUtilization{
			SlotsPerVM: cluster.Config().SlotsPerVM,
			Target:     0.7,
			MinVMs:     cfg.InitialVMs,
			MaxVMs:     32,
			HoldTicks:  4,
		}
	}
	peak := 0
	mgr := autoscale.NewManager(clk, cluster, policy, func() autoscale.Metrics {
		m := coord.Metrics()
		if v := m.Running + m.Booting; v > peak {
			peak = v
		}
		return m
	})
	mgr.Start(cfg.ScaleInterval)

	rng := rand.New(rand.NewSource(cfg.Seed + 500))
	sampleBytes := func() int64 {
		// Log-normal around the configured mean with sigma 0.8.
		mu := math.Log(cfg.MeanQueryGB * 1e9)
		v := math.Exp(mu + 0.8*rng.NormFloat64() - 0.32) // -sigma^2/2 recentres the mean
		if v < 50e6 {
			v = 50e6
		}
		if v > 50e9 {
			v = 50e9
		}
		return int64(v)
	}

	// Drive arrivals on the clock.
	var queries []*core.Query
	var schedule func()
	elapsed := time.Duration(0)
	schedule = func() {
		gap := cfg.Arrivals.Next(elapsed)
		elapsed += gap
		if elapsed > cfg.Duration {
			return
		}
		clk.AfterFunc(gap, func() {
			q := coord.Submit("sim", cfg.Levels.Pick(), core.SimPayload{Bytes: sampleBytes()})
			queries = append(queries, q)
			schedule()
		})
	}
	schedule()

	// Run the arrival window, then drain in bounded steps until every
	// submitted query settles (best-effort backlogs can take a while on
	// the minimum fleet).
	clk.Advance(cfg.Duration)
	for i := 0; i < 48*60; i++ {
		fin, failed := coord.Counts()
		if fin+failed >= len(queries) {
			break
		}
		clk.Advance(time.Minute)
	}
	mgr.Stop()

	res := SimResult{
		Queries: len(queries),
		Ledger:  ledger,
		Pending: make(map[billing.Level]PendingStats),
		PeakVMs: peak,
	}
	pendings := map[billing.Level][]time.Duration{}
	var s3 billing.ResourceUsage
	for _, b := range ledger.All() {
		if b.Status == "finished" {
			res.Finished++
		} else {
			res.Failed++
		}
		res.BytesScanned += b.BytesScanned
		res.ListRevenue += b.ListPrice
		if b.UsedCF {
			res.CFQueries++
		}
		pendings[b.Level] = append(pendings[b.Level], b.PendingTime())
		s3.S3Gets += b.Usage.S3Gets
		s3.S3Puts += b.Usage.S3Puts
	}
	prices := coord.Config().Prices
	res.WallTime = clk.Now().Sub(simStart)
	res.VMCost = cluster.AccruedCost()
	res.CFCost = cf.Usage().Cost
	res.S3Cost = prices.Cost(billing.ResourceUsage{S3Gets: s3.S3Gets, S3Puts: s3.S3Puts})
	res.TotalCost = res.VMCost + res.CFCost + res.S3Cost
	res.BaselineCost = float64(cfg.InitialVMs) * res.WallTime.Seconds() * cluster.Config().PricePerSecond
	res.ExtraCost = res.TotalCost - res.BaselineCost
	if res.ExtraCost < 0 {
		res.ExtraCost = 0
	}
	if res.Queries > 0 {
		res.CostPerQuery = res.TotalCost / float64(res.Queries)
	}
	if res.BytesScanned > 0 {
		res.CostPerTB = res.TotalCost / (float64(res.BytesScanned) / 1e12)
	}
	for lev, ds := range pendings {
		res.Pending[lev] = pendingStats(ds)
	}
	return res
}

func pendingStats(ds []time.Duration) PendingStats {
	if len(ds) == 0 {
		return PendingStats{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return PendingStats{
		Count: len(ds),
		P50:   ds[len(ds)/2],
		P99:   ds[len(ds)*99/100],
		Max:   ds[len(ds)-1],
		Mean:  sum / time.Duration(len(ds)),
	}
}

// continuousWorkload is the shared E2/E3 configuration: a bursty day-scale
// arrival process over a small warm cluster, where the only variable
// across scenarios is the service level.
func continuousWorkload(level billing.Level, seed int64) SimConfig {
	return SimConfig{
		Duration:    2 * time.Hour,
		Arrivals:    workload.NewBurst(0.05, 0.6, 20*time.Minute, 3*time.Minute, seed),
		Levels:      workload.UniformLevel{Level: level},
		Seed:        seed,
		MeanQueryGB: 4,
		InitialVMs:  1,
		VM:          vmsim.Config{SlotsPerVM: 4, BootDelay: 90 * time.Second, Seed: seed},
		CF:          cfsim.Config{Seed: seed},
		Core:        core.Config{GracePeriod: 5 * time.Minute, CFMaxParts: 8},
		// A single CF worker scans object storage slower than a VM slot
		// with a warm page cache ([7] reports per-worker bandwidth well
		// below VM-local scan rates); this is what makes CF acceleration
		// a price premium rather than a free lunch.
		Exec: core.SimExecutorConfig{CFWorkerThroughput: 100e6},
	}
}
