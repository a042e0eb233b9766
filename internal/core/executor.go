package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
)

// PlanPayload is the Query.Payload understood by PlannedExecutor: an
// already-bound plan (the REST server binds at submission time so plan
// errors are reported synchronously rather than from the scheduler).
type PlanPayload struct {
	Node plan.Node
	// ResultKey identifies the query in the coordinator's result cache
	// (plan-cache key + referenced-table generations, computed by
	// internal/qcache). Empty means the query bypasses the result cache.
	ResultKey string
	// Deadline, when positive, is the client's completion deadline, measured
	// from arrival; it replaces the tier's default in the queue's EDF order.
	Deadline time.Duration
	// Trace, when set, collects this query's span tree: the executor
	// carries it into the engine via context, CF tasks record per-attempt
	// spans, and the coordinator ends the root at finalize. Nil = tracing
	// off, with zero overhead past a nil check.
	Trace *obs.Trace
}

// PlannedExecutor runs queries on the actual engine. The scheduler decides
// *where* a query runs; either way it is one split → task attempts → merge
// pipeline (engine/runner.go), and the engine's split alone decides whether
// a plan fans out: a plan with nothing to partition, or whose merge may
// stop early (a lazy LIMIT), runs whole on either tier, so it bills the
// serial run's bytes. Both tiers run the same worker plans, join chains
// included. VM execution is an in-process parallel run of up to one
// worker per CPU (the engine's process-wide width budget narrows it)
// whose workers share memory — one join build for all probe partitions —
// and each hands the merge its finished output. CF execution runs each
// task attempt through the WorkerInvoker seam as a self-contained wire
// request: the worker reads its fragment's join builds itself (billed
// once, by task 0) and writes its output to the object store, where the
// merge reads it.
// All reads go through the engine's store stack — including the optional
// read cache, whose per-query hit/miss counts ride back in Outcome.Stats.
// Completions arrive from goroutines, so it is meant for the real clock
// (the live server path).
type PlannedExecutor struct {
	Engine *engine.Engine
	// CFInvoker is where CF worker attempts run: a pixels-worker OS process
	// for engine.ProcessInvoker, a FaaS call for a real CF tier. Nil means
	// engine.LocalInvoker — in-process, but through the same wire format.
	// Results, stats and billed bytes are identical either way, and the
	// coordinator's retry loop works unchanged because every attempt gets
	// its own attempt-suffixed intermediate key.
	CFInvoker engine.WorkerInvoker
}

// VMRun implements Executor.
func (r *PlannedExecutor) VMRun(q *Query, done func(Outcome)) {
	payload, ok := q.Payload.(PlanPayload)
	if !ok {
		done(Outcome{Err: fmt.Errorf("core: query %s has no plan payload", q.ID)})
		return
	}
	go func() {
		ctx := obs.ContextWithTrace(context.Background(), payload.Trace)
		res, err := r.Engine.RunPlanParallel(ctx, payload.Node, runtime.NumCPU())
		if err != nil {
			done(Outcome{Err: err})
			return
		}
		done(Outcome{Result: res, Stats: res.Stats})
	}()
}

// CFPlan implements Executor.
func (r *PlannedExecutor) CFPlan(q *Query, maxParts int) (CFJob, error) {
	payload, ok := q.Payload.(PlanPayload)
	if !ok {
		return nil, fmt.Errorf("core: query %s has no plan payload", q.ID)
	}
	split, err := r.Engine.SplitForCF(payload.Node, q.ID, maxParts)
	if err != nil {
		// A plan that must run whole (no scan, a scan over no files, or a
		// merge that may stop early): a job of zero tasks whose Merge runs
		// the plan whole on the coordinator — no worker is invoked and
		// nothing is written to the store.
		return &realCFJob{engine: r.Engine, whole: payload.Node, trace: payload.Trace}, nil
	}
	invoker := r.CFInvoker
	if invoker == nil {
		invoker = &engine.LocalInvoker{Engine: r.Engine}
	}
	return &realCFJob{
		engine:   r.Engine,
		split:    split,
		invoker:  invoker,
		trace:    payload.Trace,
		attempts: make([]int, len(split.Tasks)),
		interms:  make([]catalog.FileMeta, len(split.Tasks)),
	}, nil
}

type realCFJob struct {
	engine  *engine.Engine
	split   *engine.CFSplit // nil when the plan could not be split
	whole   plan.Node       // the unsplit plan, set only when split is nil
	invoker engine.WorkerInvoker
	trace   *obs.Trace // nil = tracing off

	mu       sync.Mutex
	attempts []int // RunTask calls per task: the scheduler's retries
	interms  []catalog.FileMeta
}

// context carries the query's trace (root span current) into the engine.
func (j *realCFJob) context() context.Context {
	return obs.ContextWithTrace(context.Background(), j.trace)
}

// NumTasks implements CFJob.
func (j *realCFJob) NumTasks() int {
	if j.split == nil {
		return 0
	}
	return len(j.split.Tasks)
}

// RunTask implements CFJob; the invoker's real start-up stands in for
// inv.StartDelay. The scheduler may call it again for the same task after a
// failure; each call is a fresh attempt writing to its own intermediate
// key, so a retry can never read a failed attempt's output.
func (j *realCFJob) RunTask(i int, _ *cfsim.Invocation, done func(TaskOutcome)) {
	go func() {
		j.mu.Lock()
		attempt := j.attempts[i]
		j.attempts[i]++
		j.mu.Unlock()
		if attempt > 0 {
			obs.DistTaskRetriesTotal.Inc()
		}
		ctx, span := obs.StartSpan(j.context(), fmt.Sprintf("cf-task:%d.a%d", i, attempt))
		resp, err := j.engine.InvokeTask(ctx, j.invoker, j.split, i, attempt)
		span.End()
		if err != nil {
			done(TaskOutcome{Err: err})
			return
		}
		j.mu.Lock()
		j.interms[i] = resp.Interm
		j.mu.Unlock()
		done(TaskOutcome{Stats: resp.Stats})
	}()
}

// Merge implements CFJob.
func (j *realCFJob) Merge(done func(Outcome)) {
	go func() {
		var res *engine.Result
		var err error
		if j.split == nil {
			res, err = j.engine.RunPlan(j.context(), j.whole)
		} else {
			j.mu.Lock()
			interms := append([]catalog.FileMeta(nil), j.interms...)
			j.mu.Unlock()
			res, err = j.engine.MergeIntermediates(j.context(), j.split, interms)
		}
		if err != nil {
			done(Outcome{Err: err})
			return
		}
		done(Outcome{Result: res, Stats: res.Stats})
	}()
}

// Abort implements CFJob: the winners that did finish, and every failed
// attempt's partial output, are swept from the store.
func (j *realCFJob) Abort() { j.engine.SweepIntermediates(j.split.QueryID) }

var _ Executor = (*PlannedExecutor)(nil)
var _ CFJob = (*realCFJob)(nil)
