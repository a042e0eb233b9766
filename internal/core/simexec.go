package core

import (
	"fmt"
	"time"

	"repro/internal/cfsim"
	"repro/internal/engine"
	"repro/internal/vclock"
)

// SimPayload is the Query.Payload understood by SimExecutor: a modeled
// workload characterized by the bytes it scans — the quantity both the
// execution-time model and the $/TB billing hang off.
type SimPayload struct {
	// Bytes the query scans from base tables.
	Bytes int64
	// Selectivity scales the merge/result work (0..1, default 0.01).
	Selectivity float64
}

// The analytic cost model's fixed terms. They are uncalibrated guesses,
// not measurements of this engine; the simulated experiments' golden
// outputs are pinned to them, so calibrating one is a reviewable change.
// The measured values below come from the benchmark harness on a 2-vCPU
// Intel Xeon host.
const (
	// simVMSlotThroughput is bytes/second one VM slot scans. The engine's
	// measured decode rate is about 1,016 MB/s (pixfile.decode_mb_s).
	simVMSlotThroughput = 250e6
	// simPerQueryOverhead is fixed planning/setup latency.
	simPerQueryOverhead = 50 * time.Millisecond
	// simCFTaskOverhead is per-worker-task setup beyond the cold start. A
	// warm process-mode CF task measures about 6.5 ms beyond its fragment
	// (engine.task_ms_p50 8.5 ms against engine.fragment_ms_p50 2.0 ms).
	simCFTaskOverhead = 150 * time.Millisecond
	// simMergeThroughput is bytes/second for coordinator-side merging of
	// the (selectivity-scaled) intermediates.
	simMergeThroughput = 500e6
)

// SimExecutorConfig is the analytic cost model's one tunable term.
type SimExecutorConfig struct {
	// CFWorkerThroughput is bytes/second one CF worker scans (default
	// 300 MB/s — CF workers read S3 with high parallelism).
	CFWorkerThroughput float64
}

func (c SimExecutorConfig) withDefaults() SimExecutorConfig {
	if c.CFWorkerThroughput <= 0 {
		c.CFWorkerThroughput = 300e6
	}
	return c
}

// SimExecutor models execution durations on the virtual clock instead of
// touching data. It lets the benchmark harness run hours of continuous
// workload (the E2/E3 cost experiments) in milliseconds, while exercising
// the exact scheduler/autoscaler/billing code paths of the real system.
type SimExecutor struct {
	clock vclock.Clock
	cfg   SimExecutorConfig
}

// NewSimExecutor builds the modeled executor.
func NewSimExecutor(clock vclock.Clock, cfg SimExecutorConfig) *SimExecutor {
	return &SimExecutor{clock: clock, cfg: cfg.withDefaults()}
}

func payloadOf(q *Query) (SimPayload, error) {
	p, ok := q.Payload.(SimPayload)
	if !ok {
		return SimPayload{}, fmt.Errorf("core: query %s has no simulated payload", q.ID)
	}
	if p.Selectivity <= 0 || p.Selectivity > 1 {
		p.Selectivity = 0.01
	}
	return p, nil
}

// VMRun implements Executor: duration = overhead + bytes / slot
// throughput.
func (s *SimExecutor) VMRun(q *Query, done func(Outcome)) {
	p, err := payloadOf(q)
	if err != nil {
		done(Outcome{Err: err})
		return
	}
	d := simPerQueryOverhead + time.Duration(float64(p.Bytes)/simVMSlotThroughput*float64(time.Second))
	s.clock.AfterFunc(d, func() { done(Outcome{Stats: simStats(p)}) })
}

// CFPlan implements Executor: the scan is partitioned evenly across
// workers; each task takes overhead + share / worker throughput.
func (s *SimExecutor) CFPlan(q *Query, maxParts int) (CFJob, error) {
	p, err := payloadOf(q)
	if err != nil {
		return nil, err
	}
	parts := maxParts
	if parts < 1 {
		parts = 1
	}
	return &simCFJob{ex: s, payload: p, parts: parts}, nil
}

type simCFJob struct {
	ex      *SimExecutor
	payload SimPayload
	parts   int
}

// NumTasks implements CFJob.
func (j *simCFJob) NumTasks() int { return j.parts }

// simReadSize models one large ranged GET per 32 MB scanned (analytic
// engines issue big sequential range reads to amortize request costs).
const simReadSize = 32e6

// RunTask implements CFJob: the worker is up after inv.StartDelay, billed
// from then, and the task takes overhead + share / worker throughput.
func (j *simCFJob) RunTask(i int, inv *cfsim.Invocation, done func(TaskOutcome)) {
	clock := j.ex.clock
	share := float64(j.payload.Bytes) / float64(j.parts)
	d := simCFTaskOverhead + time.Duration(share/j.ex.cfg.CFWorkerThroughput*float64(time.Second))
	clock.AfterFunc(inv.StartDelay, func() {
		inv.Started = clock.Now()
		clock.AfterFunc(d, func() {
			stats := engine.Stats{
				BytesScanned:  int64(share),
				RowsScanned:   int64(share / 100),
				RowGroupsRead: int(share/simReadSize) + 1,
			}
			done(TaskOutcome{Stats: stats})
		})
	})
}

// Merge implements CFJob.
func (j *simCFJob) Merge(done func(Outcome)) {
	intermBytes := float64(j.payload.Bytes) * j.payload.Selectivity
	d := time.Duration(intermBytes / simMergeThroughput * float64(time.Second))
	j.ex.clock.AfterFunc(d, func() {
		stats := engine.Stats{
			BytesIntermediate: int64(intermBytes),
			RowsReturned:      int64(intermBytes / 100),
			RowGroupsRead:     int(intermBytes/simReadSize) + 1,
		}
		done(Outcome{Stats: stats})
	})
}

// Abort implements CFJob: modeled tasks leave nothing behind.
func (j *simCFJob) Abort() {}

func simStats(p SimPayload) engine.Stats {
	return engine.Stats{
		BytesScanned:  p.Bytes,
		RowsScanned:   p.Bytes / 100,
		RowsReturned:  int64(float64(p.Bytes) * p.Selectivity / 100),
		RowGroupsRead: int(float64(p.Bytes)/simReadSize) + 1,
	}
}

var _ Executor = (*SimExecutor)(nil)
var _ CFJob = (*simCFJob)(nil)
