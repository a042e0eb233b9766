package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the coordinator side of real multi-process CF execution: the
// plan is decomposed with the existing SplitForCF machinery, each task is
// serialized as a WorkerRequest and handed to a WorkerInvoker (a subprocess
// locally; the same seam fits a FaaS API), the workers exchange data through
// the object store as intermediate pixfiles, and the coordinator merges the
// intermediates through the normal scan path. Failed workers are retried
// with fresh attempt-numbered output keys, stragglers optionally get a
// speculative duplicate (Starling's duplicate-request mitigation), and only
// the winning attempt's stats count — billed bytes stay exactly what a
// serial run would bill.

// WorkerInvoker runs one worker attempt somewhere and returns its response.
// Implementations must be safe for concurrent use; the coordinator invokes
// every task (and speculative duplicates) in parallel. An attempt fails
// either by error or by a response carrying a non-empty Error; both are
// retried the same way.
type WorkerInvoker interface {
	Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error)
}

// LocalInvoker executes worker requests in-process against an engine. The
// request still round-trips through the full wire format — the fragment is
// decoded from req.Plan, not shared by pointer — so everything except the
// process boundary itself is exercised. When Store is set, the request runs
// against a fresh engine over that store instead (letting tests interpose a
// FaultStore on the worker side only).
type LocalInvoker struct {
	Engine *Engine
	Store  objstore.Store
}

// Invoke implements WorkerInvoker.
func (l *LocalInvoker) Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	e := l.Engine
	if l.Store != nil {
		e = New(catalog.New(), l.Store)
	}
	return e.ExecuteWorkerRequest(ctx, req), nil
}

// ProcessInvoker runs each worker attempt as a separate OS process speaking
// JSON over stdin/stdout — the local stand-in for a cloud-function
// invocation. Workers open their own store at StoreDir, so the coordinator
// must run over a disk store rooted there.
type ProcessInvoker struct {
	// Argv is the worker command. Tests pass their own test binary
	// (os.Args[0]) with an environment marker that routes main to
	// WorkerMain; production passes the pixels-worker binary.
	Argv []string
	// Env entries are appended to the inherited environment.
	Env []string
	// StoreDir is stamped into every request's StoreDir.
	StoreDir string
	// FaultFor, when set, picks the fault plan stamped into each request so
	// its worker wraps its store in a FaultStore — letting a harness inject
	// faults into chosen attempts only (e.g. only attempt 0, so recovery is
	// guaranteed yet provably exercised).
	FaultFor func(req *WorkerRequest) *objstore.FaultConfig

	live atomic.Int64
}

// LiveProcesses reports worker processes currently running. Teardown tests
// assert it drains to zero after cancellation.
func (p *ProcessInvoker) LiveProcesses() int64 { return p.live.Load() }

// Invoke implements WorkerInvoker.
func (p *ProcessInvoker) Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	if len(p.Argv) == 0 {
		return nil, fmt.Errorf("engine: ProcessInvoker has no command")
	}
	r := *req
	r.StoreDir = p.StoreDir
	if p.FaultFor != nil {
		r.Fault = p.FaultFor(&r)
	}
	payload, err := json.Marshal(&r)
	if err != nil {
		return nil, err
	}
	cmd := osexec.CommandContext(ctx, p.Argv[0], p.Argv[1:]...)
	cmd.Env = append(os.Environ(), p.Env...)
	cmd.Stdin = bytes.NewReader(payload)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	p.live.Add(1)
	runErr := cmd.Run() // CommandContext kills the process on ctx cancel
	p.live.Add(-1)

	var resp WorkerResponse
	if err := json.Unmarshal(stdout.Bytes(), &resp); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if runErr != nil {
			return nil, fmt.Errorf("engine: worker process: %w (stderr: %s)", runErr, bytes.TrimSpace(stderr.Bytes()))
		}
		return nil, fmt.Errorf("engine: bad worker response: %w", err)
	}
	if resp.Error == "" && runErr != nil {
		resp.Error = runErr.Error()
	}
	return &resp, nil
}

// DistOptions configure a distributed run.
type DistOptions struct {
	// Parts is the worker count; <1 means one per CPU. Clamped to the
	// partitioned table's file count by the splitter.
	Parts int
	// Invoker runs worker attempts; nil means in-process LocalInvoker.
	Invoker WorkerInvoker
	// Retries is the extra attempts a failed task gets before the query
	// fails. Each retry writes to a fresh attempt-numbered key.
	Retries int
	// SpeculativeAfter, when positive, launches a duplicate attempt for any
	// task still running after this duration; the first attempt to finish
	// wins and the loser is cancelled. 0 disables speculation.
	SpeculativeAfter time.Duration
}

// distLive counts live coordinator goroutines (per-task supervisors and
// per-attempt invokers). Leak tests assert it drains to zero.
var distLive atomic.Int64

// DistributedGoroutines reports coordinator goroutines currently live. It
// exists for leak tests, mirroring PipelineGoroutines.
func DistributedGoroutines() int64 { return distLive.Load() }

// RunPlanDistributed executes a plan through the multi-process CF path:
// split, invoke one worker per task, merge the intermediate pixfiles the
// workers wrote to the object store. Plans that cannot be decomposed fall
// back to the serial RunPlan. Results, stats and billed bytes match the
// serial execution of the same plan (plus the BytesIntermediate /
// RowsScanned the intermediate exchange itself adds, exactly as the
// in-process CF path adds them).
func (e *Engine) RunPlanDistributed(ctx context.Context, node plan.Node, queryID string, opts DistOptions) (*Result, error) {
	if opts.Invoker == nil {
		opts.Invoker = &LocalInvoker{Engine: e}
	}
	parts := opts.Parts
	if parts < 1 {
		parts = DefaultParallelism(0)
	}
	split, err := e.SplitForCF(node, queryID, parts)
	if err != nil {
		return e.RunPlan(ctx, node)
	}
	return e.runSplitDistributed(ctx, split, opts)
}

// runSplitDistributed drives one split through the invoker and merges.
func (e *Engine) runSplitDistributed(ctx context.Context, split *CFSplit, opts DistOptions) (*Result, error) {
	ctx, dspan := obs.StartSpan(ctx, "exec:distributed")
	defer dspan.End()
	dspan.SetAttr("parts", len(split.Tasks))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(split.Tasks)
	resps := make([]*WorkerResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		distLive.Add(1)
		go func(task int) {
			defer wg.Done()
			defer distLive.Add(-1)
			tspan := dspan.StartChild(fmt.Sprintf("task:%d", task))
			resps[task], errs[task] = e.runTaskAttempts(obs.ContextWithSpan(wctx, tspan), split, task, opts)
			tspan.End()
			if errs[task] != nil {
				cancel() // abort sibling tasks
			}
		}(i)
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		// Failed queries still sweep whatever attempts managed to write.
		e.SweepIntermediates(split.QueryID)
		return nil, rootCause(ctx, firstErr, errs)
	}

	// Winner-only accounting: exactly one response per task survives, so a
	// retried or duplicated task contributes one attempt's bytes — the same
	// bytes a fault-free run would bill.
	interms := make([]catalog.FileMeta, n)
	for i, r := range resps {
		interms[i] = r.Interm
	}
	res, err := e.MergeIntermediates(ctx, split, interms)
	if err != nil {
		return nil, err
	}
	for _, r := range resps {
		res.Stats.Add(r.Stats)
	}
	return res, nil
}

// runTaskAttempts supervises one task: first attempt, retries on failure,
// and an optional speculative duplicate for stragglers. The first
// successful attempt wins; remaining in-flight attempts are cancelled and
// waited for on return, so nothing this task launched can still write under
// the query's intermediate prefix once the caller sweeps it. Exactly one
// attempt's response is returned, so its stats are counted once no matter
// how many attempts ran.
func (e *Engine) runTaskAttempts(ctx context.Context, split *CFSplit, task int, opts DistOptions) (*WorkerResponse, error) {
	tctx, cancel := context.WithCancel(ctx)
	var live sync.WaitGroup
	defer func() {
		cancel() // tears down the loser of a speculative race
		live.Wait()
	}()
	tspan := obs.SpanFrom(ctx)

	type attemptResult struct {
		resp *WorkerResponse
		err  error
		span *obs.Span
	}
	// Buffered for the worst case (all retries plus the speculative
	// duplicate), so late finishers never block after we've returned.
	ch := make(chan attemptResult, opts.Retries+2)
	attempts := 0
	launch := func() {
		attempt := attempts
		attempts++
		distLive.Add(1)
		live.Add(1)
		// Attempt spans start detached: only attempts that report back are
		// attached to the task span, so a cancelled straggler's span can
		// never dangle open past its parent.
		aspan := tspan.Detached(fmt.Sprintf("attempt:%d", attempt))
		go func() {
			defer live.Done()
			defer distLive.Add(-1)
			resp, err := e.InvokeTask(obs.ContextWithSpan(tctx, aspan), opts.Invoker, split, task, attempt)
			aspan.End()
			ch <- attemptResult{resp, err, aspan}
		}()
	}
	launch()
	var speculate <-chan time.Time
	if opts.SpeculativeAfter > 0 {
		speculate = time.After(opts.SpeculativeAfter)
	}

	outstanding := 1
	budget := opts.Retries
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-speculate:
			speculate = nil
			// Duplicate the straggler; does not consume retry budget.
			launch()
			outstanding++
			obs.DistTaskSpeculativeTotal.Inc()
			tspan.Event("speculate", map[string]any{"attempt": attempts - 1})
		case r := <-ch:
			outstanding--
			tspan.Attach(r.span)
			if r.err == nil {
				return r.resp, nil
			}
			lastErr = r.err
			if budget > 0 && ctx.Err() == nil {
				budget--
				obs.DistTaskRetriesTotal.Inc()
				tspan.Event("retry", map[string]any{
					"attempt": attempts,
					"error":   r.err.Error(),
				})
				launch()
				outstanding++
			} else if outstanding == 0 {
				// Retry budget exhausted: every attempt's intermediate key
				// is about to be swept by the caller's DeletePrefix — name
				// them in the error and the trace instead of failing
				// silently with only the last attempt's message.
				swept := make([]string, attempts)
				for a := range swept {
					swept[a] = intermAttemptKey(split.QueryID, task, a)
				}
				obs.DistTaskSweptKeysTotal.Add(int64(len(swept)))
				tspan.Event("retries-exhausted", map[string]any{
					"attempts":   attempts,
					"swept_keys": swept,
				})
				return nil, fmt.Errorf("engine: task %d failed after %d attempt(s), sweeping intermediates %v: %w",
					task, attempts, swept, lastErr)
			}
		}
	}
}

// InvokeTask runs one attempt of one task of a split through inv — the
// single CF task-attempt primitive under both this file's supervisor and
// internal/core's scheduler. It serializes the task into a self-contained
// request (asking for worker spans when ctx carries a span), invokes it,
// turns a worker-reported failure into an error, and grafts the fragment
// spans the worker shipped back under ctx's span. The attempt writes
// part-<task>.a<attempt>.pxl under the query's intermediate prefix; the
// caller owns retry policy and, once all tasks have a winner, hands the
// winners' Interm to MergeIntermediates.
func (e *Engine) InvokeTask(ctx context.Context, inv WorkerInvoker, split *CFSplit, task, attempt int) (*WorkerResponse, error) {
	span := obs.SpanFrom(ctx)
	fail := func(err error) (*WorkerResponse, error) {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	req, err := NewWorkerRequest(split, task, attempt)
	if err != nil {
		return fail(err)
	}
	req.Trace = span != nil
	resp, err := inv.Invoke(ctx, req)
	if err != nil {
		return fail(err)
	}
	if resp.Error != "" {
		return fail(fmt.Errorf("engine: worker %d attempt %d: %s", task, attempt, resp.Error))
	}
	span.Adopt(resp.Spans)
	resp.Spans = nil
	return resp, nil
}

// MergeIntermediates merges the winning attempts' intermediates (one per
// task, in task order) into the final result and sweeps the query's whole
// intermediate prefix — including orphans written by failed or duplicated
// attempts that never made it into interms. Each file gets its own lazy
// reader, opened when the merge first pulls it. The result's Stats cover
// the exchange only (BytesIntermediate and the intermediate rows read); the
// caller adds the winners' scan stats.
func (e *Engine) MergeIntermediates(ctx context.Context, split *CFSplit, interms []catalog.FileMeta) (*Result, error) {
	defer e.SweepIntermediates(split.QueryID)
	var exchange Stats
	streams := make([]exec.BatchIterator, len(interms))
	for i, m := range interms {
		streams[i] = e.newScanContext(ctx, split.interm, []catalog.FileMeta{m}, &exchange, true).sequential()
	}
	res, err := e.mergeSplit(ctx, split, streams)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(exchange)
	return res, nil
}

// SweepIntermediates deletes everything under a query's intermediate
// prefix. Both outcomes of a CF query end here: after the merge, and when
// the query fails with some attempts' outputs already written.
func (e *Engine) SweepIntermediates(queryID string) {
	_, _ = objstore.DeletePrefix(e.store, objstore.IntermediatePrefix(queryID))
}
