package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pixfile"
	"repro/internal/plan"
)

// WorkerRequest is the complete job description one CF worker receives: the
// serialized fragment, the file partition to run it over, and the object key
// to write the intermediate to. It is self-contained — a worker process
// reconstructs everything it needs (store, fragment, fault plan) from the
// request alone, with no catalog and no shared memory, and carries nothing
// from one request to the next but its open disk store.
type WorkerRequest struct {
	QueryID string `json:"query_id"`
	Task    int    `json:"task"`
	// Attempt distinguishes retries of the same task. Each attempt writes to
	// its own OutKey, so a retry can never read or be confused with a failed
	// attempt's partial output.
	Attempt int                `json:"attempt"`
	Plan    *wireNode          `json:"plan"`
	Files   []catalog.FileMeta `json:"files"`
	OutKey  string             `json:"out_key"`

	// StoreDir is the disk-store root a worker process opens. Ignored by
	// in-process invokers, which share the coordinator's store directly.
	StoreDir string `json:"store_dir,omitempty"`
	// Fault, when set, wraps the worker's store in a FaultStore — the
	// harness ships the fault plan to the worker so injected store errors
	// happen inside the worker process, where recovery must work.
	Fault *objstore.FaultConfig `json:"fault,omitempty"`
	// Trace asks the worker to record per-operator spans for its fragment
	// and ship them back in WorkerResponse.Spans. Execution, stats and
	// billed bytes are identical either way.
	Trace bool `json:"trace,omitempty"`
}

// WorkerResponse is what a worker reports back: the intermediate it wrote
// and the scan statistics it accumulated, or an error. A response carrying
// an error always carries zero Stats — a failed attempt must contribute
// nothing to the query's billed bytes, or retries would double-bill.
type WorkerResponse struct {
	Interm catalog.FileMeta `json:"interm"`
	Stats  Stats            `json:"stats"`
	Error  string           `json:"error,omitempty"`
	// Spans is the fragment's span tree when the request set Trace.
	// InvokeTask grafts it under the attempt's span.
	Spans *obs.SpanData `json:"spans,omitempty"`
}

// NewWorkerRequest serializes one task of a split into a self-contained
// request for the given attempt.
func NewWorkerRequest(split *CFSplit, task, attempt int) (*WorkerRequest, error) {
	if task < 0 || task >= len(split.Tasks) {
		return nil, fmt.Errorf("engine: task %d out of range %d", task, len(split.Tasks))
	}
	if split.buildJoin != nil {
		// Each CF worker is its own process: it would have to rebuild the
		// join's build side, scanning that table once per task and
		// inflating the billed bytes. Only the in-process parallel VM path
		// (runSplitParallel) can honor a shared-build split.
		return nil, fmt.Errorf("engine: shared-build join split cannot run as a CF worker")
	}
	wp, err := encodeNode(split.workerPlan)
	if err != nil {
		return nil, err
	}
	return &WorkerRequest{
		QueryID: split.QueryID,
		Task:    task,
		Attempt: attempt,
		Plan:    wp,
		Files:   split.Tasks[task].Files,
		OutKey:  intermAttemptKey(split.QueryID, task, attempt),
	}, nil
}

// intermAttemptKey is the object key one attempt of one task writes. Every
// attempt gets its own key under the query's intermediate prefix; the
// coordinator records the winner's key and deletes the whole prefix after
// the merge, which also sweeps orphans left by failed or duplicated
// attempts.
func intermAttemptKey(queryID string, part, attempt int) string {
	return fmt.Sprintf("%spart-%05d.a%d.pxl", objstore.IntermediatePrefix(queryID), part, attempt)
}

// decodeWorkerPlan rebuilds a fragment and locates its partitioned scan. A
// CF-safe fragment contains exactly one scan (NewWorkerRequest rejects the
// only split shape with two).
func decodeWorkerPlan(w *wireNode) (plan.Node, *plan.ScanNode, error) {
	node, err := decodeNode(w)
	if err != nil {
		return nil, nil, err
	}
	scans := plan.Scans(node)
	if len(scans) != 1 {
		return nil, nil, fmt.Errorf("engine: worker fragment has %d scans, want 1", len(scans))
	}
	return node, scans[0], nil
}

// ExecuteWorkerRequest decodes and runs a worker request against this
// engine's store: the fragment's batches stream straight into a pixfile
// writer (worker memory stays bounded by a row group) and the file lands at
// req.OutKey. It is the single execution path shared by the worker process
// (WorkerMain) and the in-process LocalInvoker, so both exercise the same
// serialization round trip.
func (e *Engine) ExecuteWorkerRequest(ctx context.Context, req *WorkerRequest) *WorkerResponse {
	// Scope the fragment's scan pipelines to this call.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// A traced request records the fragment under a worker-local trace;
	// its snapshot ships back in the response and InvokeTask grafts it
	// under the attempt's span.
	var wtr *obs.Trace
	if req.Trace {
		wtr = obs.NewTrace(req.QueryID, fmt.Sprintf("fragment:t%d.a%d", req.Task, req.Attempt))
		ctx = obs.ContextWithTrace(ctx, wtr)
	}
	node, scan, err := decodeWorkerPlan(req.Plan)
	if err != nil {
		return &WorkerResponse{Error: err.Error()}
	}
	w := pixfile.NewWriter(node.Schema(), pixfile.WriterOptions{})
	meta := catalog.FileMeta{Key: req.OutKey}
	stats, err := e.runFragment(ctx, node, scan, req.Files, nil, func(b *col.Batch) error {
		meta.Rows += int64(b.N)
		return w.Append(b)
	})
	var data []byte
	if err == nil {
		data, err = w.Finish()
	}
	if err == nil {
		err = e.store.Put(req.OutKey, data)
	}
	if err != nil {
		return &WorkerResponse{Error: err.Error()}
	}
	meta.Size = int64(len(data))
	resp := &WorkerResponse{Interm: meta, Stats: stats}
	if wtr != nil {
		root := wtr.Root()
		root.SetAttr("out_rows", meta.Rows)
		root.SetAttr("out_bytes", meta.Size)
		root.End()
		resp.Spans = wtr.Data()
	}
	return resp
}

// WorkerMain is the entry point of a CF worker process: it answers the JSON
// WorkerRequests on stdin in order, one JSON WorkerResponse on stdout each,
// until stdin reaches EOF, and returns the process exit code — 0 when every
// request succeeded, 1 when one failed. One request then EOF is a one-shot
// worker; ProcessInvoker keeps the process warm and sends it many. A
// protocol error (no request at all, malformed JSON, no store_dir) is
// answered with an error response and ends the worker with 1, since the
// stream can no longer be trusted. The worker keeps one disk store per
// StoreDir across requests; a request's Fault wraps it for that request
// only, so a fault plan never outlives its request. A coordinator that dies
// closes stdin, so its workers see EOF and exit rather than linger.
// cmd/pixels-worker calls it from main; test binaries call it from TestMain
// when re-executed as workers, so multi-process tests need no separately
// built binary.
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer) int {
	dec, enc := json.NewDecoder(stdin), json.NewEncoder(stdout)
	fail := func(err error) int {
		// Protocol errors still produce a well-formed response when
		// possible; the exit code tells the invoker regardless.
		_ = enc.Encode(&WorkerResponse{Error: err.Error()})
		fmt.Fprintln(stderr, "pixels-worker:", err)
		return 1
	}

	disks := map[string]*objstore.Disk{}
	code := 0
	for served := 0; ; served++ {
		var req WorkerRequest
		if err := dec.Decode(&req); err != nil {
			if err == io.EOF && served > 0 {
				return code
			}
			return fail(fmt.Errorf("decode request: %w", err))
		}
		if req.StoreDir == "" {
			return fail(fmt.Errorf("request has no store_dir"))
		}
		disk := disks[req.StoreDir]
		if disk == nil {
			var err error
			if disk, err = objstore.NewDisk(req.StoreDir); err != nil {
				return fail(err)
			}
			disks[req.StoreDir] = disk
		}
		var store objstore.Store = disk
		if req.Fault != nil {
			store = objstore.NewFaultStore(store, *req.Fault)
		}

		// SIGINT and SIGTERM cancel the request in flight, which is still
		// answered, and then end the worker. Between requests they keep
		// their default action, so an idle worker dies of them at once.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		resp := New(catalog.New(), store).ExecuteWorkerRequest(ctx, &req)
		interrupted := ctx.Err() != nil
		stop()
		if err := enc.Encode(resp); err != nil {
			fmt.Fprintln(stderr, "pixels-worker:", err)
			return 1
		}
		if resp.Error != "" {
			code = 1
		}
		if interrupted {
			return 1
		}
	}
}
