package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/obs"
)

// This file holds the primitives of real multi-process CF execution; the
// supervisor that drives them is internal/core's scheduler (runOnCF). A plan
// decomposed by SplitForCF runs one InvokeTask attempt per task — the task
// serialized as a WorkerRequest and handed to a WorkerInvoker (a warm
// subprocess locally; the same seam fits a FaaS API) — the workers exchange data
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

// ProcessInvoker runs worker attempts in warm worker OS processes speaking
// JSON over stdin/stdout — the local stand-in for a cloud-function tier
// that keeps function instances warm. Workers open their own store at
// StoreDir, so the coordinator must run over a disk store rooted there.
//
// An attempt takes an idle worker or starts one, and each worker has one
// request in flight at a time. A worker goes back to the idle list only
// after a clean response (decoded, no Error): a failed worker does not go
// back warm. Cancelling an attempt's context SIGKILLs and reaps that
// attempt's worker. Workers idle for longer than workerIdleTTL are reaped
// by the next Invoke. The idle list never outgrows the peak number of
// concurrent Invokes, which the scheduler caps at CF headroom. The zero
// value is ready to use; Close reaps the idle workers, and after it every
// worker is reaped when its attempt ends. Workers left idle by a process
// that exits without Close see EOF on stdin and exit.
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

	live   atomic.Int64
	mu     sync.Mutex
	idle   []*workerProc // oldest first
	closed bool
}

// workerIdleTTL is how long an idle worker stays warm: cfsim's default
// WarmIdleTTL, the meter's model of the same pool.
const workerIdleTTL = 10 * time.Minute

// stderrTail bounds the stderr a worker keeps per request for error
// messages.
const stderrTail = 4 << 10

// workerProc is one worker process and the two ends of its JSON stream.
type workerProc struct {
	cmd       *osexec.Cmd
	enc       *json.Encoder // its stdin
	dec       *json.Decoder // its stdout
	stderr    tailBuffer
	idleSince time.Time
}

// LiveProcesses reports worker processes started and not yet reaped, idle
// ones included. Teardown tests assert it drains to zero after a cancelled
// attempt and after Close.
func (p *ProcessInvoker) LiveProcesses() int64 { return p.live.Load() }

// Invoke implements WorkerInvoker.
func (p *ProcessInvoker) Invoke(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	if len(p.Argv) == 0 {
		return nil, fmt.Errorf("engine: ProcessInvoker has no command")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := *req
	r.StoreDir = p.StoreDir
	if p.FaultFor != nil {
		r.Fault = p.FaultFor(&r)
	}
	w, err := p.take()
	if err != nil {
		return nil, err
	}
	resp, err := w.call(ctx, &r)
	if err != nil {
		exit := p.reap(w)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("engine: worker process: %w (%v; stderr: %s)", err, exit, w.stderr.String())
	}
	if resp.Error != "" {
		p.reap(w)
	} else {
		p.put(w)
	}
	return resp, nil
}

// call sends one request and reads its response. Cancelling ctx kills the
// process, which ends the exchange; the process is then dead whatever it
// answered, and call reports ctx's error.
func (w *workerProc) call(ctx context.Context, req *WorkerRequest) (*WorkerResponse, error) {
	w.stderr.Reset()
	stop := context.AfterFunc(ctx, func() { _ = w.cmd.Process.Kill() })
	var resp WorkerResponse
	err := w.enc.Encode(req)
	if err == nil {
		err = w.dec.Decode(&resp)
	}
	if !stop() {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// take pops the most recently used idle worker, or starts one. Workers
// idle past workerIdleTTL are reaped on the way.
func (p *ProcessInvoker) take() (*workerProc, error) {
	p.mu.Lock()
	n := 0
	for n < len(p.idle) && time.Since(p.idle[n].idleSince) > workerIdleTTL {
		n++
	}
	stale := slices.Clone(p.idle[:n])
	p.idle = slices.Delete(p.idle, 0, n)
	var w *workerProc
	if k := len(p.idle); k > 0 {
		w = p.idle[k-1]
		p.idle = slices.Delete(p.idle, k-1, k)
	}
	p.mu.Unlock()
	for _, s := range stale {
		p.reap(s)
	}
	if w != nil {
		return w, nil
	}
	return p.start()
}

// start launches a worker process. It outlives any one request's context,
// so it is started without one; call kills it on cancellation instead.
func (p *ProcessInvoker) start() (*workerProc, error) {
	cmd := osexec.Command(p.Argv[0], p.Argv[1:]...)
	cmd.Env = append(os.Environ(), p.Env...)
	w := &workerProc{cmd: cmd}
	cmd.Stderr = &w.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("engine: start worker: %w", err)
	}
	p.live.Add(1)
	w.enc, w.dec = json.NewEncoder(stdin), json.NewDecoder(stdout)
	return w, nil
}

// put returns a worker that answered cleanly to the idle list, or reaps it
// once the invoker is closed.
func (p *ProcessInvoker) put(w *workerProc) {
	p.mu.Lock()
	closed := p.closed
	if !closed {
		w.idleSince = time.Now() // under the lock, so idle stays oldest first
		p.idle = append(p.idle, w)
	}
	p.mu.Unlock()
	if closed {
		p.reap(w)
	}
}

// reap kills a worker and waits for it, returning how it exited.
func (p *ProcessInvoker) reap(w *workerProc) error {
	_ = w.cmd.Process.Kill() // fails only if it already exited; Wait reaps either way
	err := w.cmd.Wait()
	p.live.Add(-1)
	return err
}

// Close kills and reaps every idle worker. Attempts in flight finish, and
// their workers are reaped instead of pooled; so is every later attempt's.
func (p *ProcessInvoker) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, w := range idle {
		p.reap(w)
	}
}

// tailBuffer keeps the last stderrTail bytes written to it. A worker's
// stderr is copied into it by os/exec's goroutine while Invoke reads it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	n := len(p)
	if n > stderrTail {
		p = p[n-stderrTail:]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if over := len(b.buf) + len(p) - stderrTail; over > 0 {
		b.buf = b.buf[:copy(b.buf, b.buf[over:])]
	}
	b.buf = append(b.buf, p...)
	return n, nil
}

func (b *tailBuffer) Reset() {
	b.mu.Lock()
	b.buf = b.buf[:0]
	b.mu.Unlock()
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(bytes.TrimSpace(b.buf))
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
	// Scope the readers to the merge: a merge that stops early still
	// releases the files its readers hold open.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var exchange Stats
	streams := make([]exec.BatchIterator, len(interms))
	for i, m := range interms {
		streams[i] = e.newScanContext(ctx, split.interm, nil, []catalog.FileMeta{m}, &exchange, true).sequential()
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
