package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/obs"
)

// This file holds the primitives of real multi-process CF execution; the
// supervisor that drives them is internal/core's scheduler (runOnCF). A plan
// decomposed by SplitForCF runs one InvokeTask attempt per task — the task
// serialized as a WorkerRequest and handed to a WorkerInvoker (a subprocess
// locally; the same seam fits a FaaS API) — the workers exchange data
// through the object store as intermediate pixfiles, and MergeIntermediates
// merges the winning attempts' files through the normal scan path. Every
// attempt writes to its own attempt-numbered key, so a retry can never read
// a failed attempt's output, and only the winners' stats are handed to the
// merge's caller — billed bytes stay exactly what a serial run would bill.

// WorkerInvoker runs one worker attempt somewhere and returns its response.
// Implementations must be safe for concurrent use; the scheduler invokes
// every task of a query in parallel. An attempt fails either by error or by
// a response carrying a non-empty Error; both are retried the same way.
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

// InvokeTask runs one attempt of one task of a split through inv — the
// single CF task-attempt primitive under internal/core's scheduler. It
// serializes the task into a self-contained
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
