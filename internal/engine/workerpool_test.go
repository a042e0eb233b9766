package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/objstore"
	"repro/internal/sql"
)

// protoFixture is a disk-store engine and a two-task split of an
// aggregate over it, for driving the worker protocol by hand.
func protoFixture(t *testing.T) (*Engine, string, *CFSplit) {
	t.Helper()
	e, dir := newDiskEngine(t, 4, 300)
	split, err := e.SplitForCF(planNode(t, e, "SELECT f_cat, COUNT(*), SUM(f_val) FROM fact GROUP BY f_cat"), "proto", 2)
	if err != nil {
		t.Fatal(err)
	}
	return e, dir, split
}

// wireRequest is one task attempt as ProcessInvoker sends it.
func wireRequest(t *testing.T, split *CFSplit, dir string, task, attempt int, fault *objstore.FaultConfig) *WorkerRequest {
	t.Helper()
	req := mustRequest(t, split, task, attempt)
	req.StoreDir, req.Fault = dir, fault
	return req
}

// requestStream is the stdin of a worker fed these requests.
func requestStream(t *testing.T, reqs ...*WorkerRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// runWorkerMain runs WorkerMain in-process over stdin and returns what it
// wrote to stdout and its exit code.
func runWorkerMain(stdin []byte) ([]byte, int) {
	var stdout bytes.Buffer
	code := WorkerMain(bytes.NewReader(stdin), &stdout, io.Discard)
	return stdout.Bytes(), code
}

// oneShot is what a one-shot worker writes and returns for one request: a
// fresh disk store, the request's fault plan around it, one execution, one
// encoded response, exit 1 on error.
func oneShot(t *testing.T, req *WorkerRequest) ([]byte, int) {
	t.Helper()
	disk, err := objstore.NewDisk(req.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	var store objstore.Store = disk
	if req.Fault != nil {
		store = objstore.NewFaultStore(store, *req.Fault)
	}
	resp := New(catalog.New(), store).ExecuteWorkerRequest(context.Background(), req)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		return buf.Bytes(), 1
	}
	return buf.Bytes(), 0
}

// decodeResponses splits a worker's stdout into its responses.
func decodeResponses(t *testing.T, stdout []byte) []WorkerResponse {
	t.Helper()
	var out []WorkerResponse
	dec := json.NewDecoder(bytes.NewReader(stdout))
	for {
		var r WorkerResponse
		if err := dec.Decode(&r); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("worker stdout %q: %v", stdout, err)
		}
		out = append(out, r)
	}
}

// localStats is what the in-process invoker reports for one task.
func localStats(t *testing.T, e *Engine, split *CFSplit, task int) Stats {
	t.Helper()
	resp, err := (&LocalInvoker{Engine: e}).Invoke(context.Background(), mustRequest(t, split, task, 99))
	if err != nil || resp.Error != "" {
		t.Fatalf("local task %d: %v %s", task, err, resp.Error)
	}
	return resp.Stats
}

func TestWorkerMainNoRequest(t *testing.T) {
	stdout, code := runWorkerMain(nil)
	resps := decodeResponses(t, stdout)
	if code != 1 || len(resps) != 1 || !strings.Contains(resps[0].Error, "decode request: EOF") {
		t.Fatalf("empty stdin: exit %d, responses %+v; want exit 1 and one decode error", code, resps)
	}
}

// TestWorkerMainOneShot: one request then EOF is the one-shot protocol —
// the same bytes and exit code, for a clean and for a failing request.
func TestWorkerMainOneShot(t *testing.T) {
	_, dir, split := protoFixture(t)
	for _, fault := range []*objstore.FaultConfig{nil, {FailFirst: 1 << 30}} {
		req := wireRequest(t, split, dir, 0, 0, fault)
		want, wantCode := oneShot(t, req)
		got, code := runWorkerMain(requestStream(t, req))
		if !bytes.Equal(got, want) || code != wantCode {
			t.Fatalf("fault %+v: worker wrote %q exit %d, one-shot %q exit %d", fault, got, code, want, wantCode)
		}
	}
}

func TestWorkerMainAnswersInOrder(t *testing.T) {
	e, dir, split := protoFixture(t)
	reqs := []*WorkerRequest{
		wireRequest(t, split, dir, 0, 0, nil),
		wireRequest(t, split, dir, 1, 0, nil),
		wireRequest(t, split, dir, 0, 1, nil),
	}
	stdout, code := runWorkerMain(requestStream(t, reqs...))
	resps := decodeResponses(t, stdout)
	if code != 0 || len(resps) != len(reqs) {
		t.Fatalf("exit %d, %d responses; want 0 and %d", code, len(resps), len(reqs))
	}
	for i, r := range resps {
		if r.Error != "" || r.Interm.Key != reqs[i].OutKey || r.Stats != localStats(t, e, split, reqs[i].Task) {
			t.Fatalf("response %d = %+v for request of task %d → %s", i, r, reqs[i].Task, reqs[i].OutKey)
		}
	}
}

// TestWorkerMainMalformedAfterGood: a protocol error ends the worker, and
// what it answered before stays intact.
func TestWorkerMainMalformedAfterGood(t *testing.T) {
	_, dir, split := protoFixture(t)
	req := wireRequest(t, split, dir, 0, 0, nil)
	first, _ := oneShot(t, req)
	stdout, code := runWorkerMain(append(requestStream(t, req), `{"query_id": 7`...))
	if code != 1 || !bytes.HasPrefix(stdout, first) {
		t.Fatalf("exit %d, stdout %q; want exit 1 after %q", code, stdout, first)
	}
	resps := decodeResponses(t, stdout)
	if len(resps) != 2 || !strings.Contains(resps[1].Error, "decode request") {
		t.Fatalf("responses %+v; want the first, then a decode error", resps)
	}
}

// TestWorkerMainFaultDoesNotLeak: a request whose fault plan fails every
// store operation must not poison the next request on the same worker.
func TestWorkerMainFaultDoesNotLeak(t *testing.T) {
	e, dir, split := protoFixture(t)
	stdout, code := runWorkerMain(requestStream(t,
		wireRequest(t, split, dir, 0, 0, &objstore.FaultConfig{FailFirst: 1 << 30}),
		wireRequest(t, split, dir, 0, 1, nil)))
	resps := decodeResponses(t, stdout)
	if len(resps) != 2 || resps[0].Error == "" || resps[0].Stats != (Stats{}) {
		t.Fatalf("responses %+v; want a failed first one with zero stats", resps)
	}
	if resps[1].Error != "" || resps[1].Stats != localStats(t, e, split, 0) {
		t.Fatalf("clean request after a faulted one: %+v, want the local invoker's stats %+v", resps[1], localStats(t, e, split, 0))
	}
	if code != 1 {
		t.Fatalf("exit %d; a worker that answered an error exits 1", code)
	}
}

// idleWorkers lists the idle workers, oldest first.
func idleWorkers(p *ProcessInvoker) []*workerProc {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.idle)
}

// idlePIDs lists the idle workers' process ids, oldest first.
func idlePIDs(p *ProcessInvoker) []int {
	var pids []int
	for _, w := range idleWorkers(p) {
		pids = append(pids, w.cmd.Process.Pid)
	}
	return pids
}

// invokeClean runs one attempt that must succeed.
func invokeClean(t *testing.T, p *ProcessInvoker, req *WorkerRequest) *WorkerResponse {
	t.Helper()
	resp, err := p.Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	return resp
}

// TestProcessInvokerReusesWarmWorker: sequential attempts share one warm
// process, with the stats of a cold one; Close reaps it.
func TestProcessInvokerReusesWarmWorker(t *testing.T) {
	e, dir, split := protoFixture(t)
	p := newProcessInvoker(dir)
	defer p.Close()
	var pid int
	for i := 0; i < 20; i++ {
		resp := invokeClean(t, p, mustRequest(t, split, i%2, i))
		if want := localStats(t, e, split, i%2); resp.Stats != want {
			t.Fatalf("attempt %d: stats %+v, local invoker %+v", i, resp.Stats, want)
		}
		pids := idlePIDs(p)
		if len(pids) != 1 || (pid != 0 && pids[0] != pid) {
			t.Fatalf("after attempt %d: idle workers %v, want the one warm worker %d", i, pids, pid)
		}
		pid = pids[0]
	}
	if n := p.LiveProcesses(); n != 1 {
		t.Fatalf("%d live workers after 20 sequential attempts, want 1", n)
	}
	p.Close()
	if n := p.LiveProcesses(); n != 0 {
		t.Fatalf("%d live workers after Close", n)
	}
	// A closed invoker still answers; it just keeps nothing warm.
	invokeClean(t, p, mustRequest(t, split, 0, 20))
	if n := p.LiveProcesses(); n != 0 {
		t.Fatalf("%d live workers after an attempt on a closed invoker", n)
	}
}

// TestProcessInvokerDiscardsFailedWorker: a worker whose response carried
// an error does not go back warm.
func TestProcessInvokerDiscardsFailedWorker(t *testing.T) {
	_, dir, split := protoFixture(t)
	p := newProcessInvoker(dir)
	defer p.Close()
	p.FaultFor = func(req *WorkerRequest) *objstore.FaultConfig {
		if req.Attempt == 1 {
			return &objstore.FaultConfig{FailFirst: 1 << 30}
		}
		return nil
	}
	invokeClean(t, p, mustRequest(t, split, 0, 0))
	warm := idlePIDs(p)
	resp, err := p.Invoke(context.Background(), mustRequest(t, split, 0, 1))
	if err != nil || resp.Error == "" || resp.Stats != (Stats{}) {
		t.Fatalf("faulted attempt: %+v, %v; want an error response with zero stats", resp, err)
	}
	if n := p.LiveProcesses(); n != 0 || len(idlePIDs(p)) != 0 {
		t.Fatalf("failed worker kept: %d live, idle %v", n, idlePIDs(p))
	}
	invokeClean(t, p, mustRequest(t, split, 0, 2))
	if fresh := idlePIDs(p); len(fresh) != 1 || fresh[0] == warm[0] {
		t.Fatalf("idle %v after the failed worker %v: want one new process", fresh, warm)
	}
}

// TestProcessInvokerCancelKillsOnlyItsWorker: of two slow concurrent
// attempts, cancelling one kills its process only; the other finishes and
// goes back warm.
func TestProcessInvokerCancelKillsOnlyItsWorker(t *testing.T) {
	_, dir, split := protoFixture(t)
	p := newProcessInvoker(dir)
	defer p.Close()
	p.FaultFor = func(*WorkerRequest) *objstore.FaultConfig {
		return &objstore.FaultConfig{Latency: 40 * time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	var cancelled, finished error
	var resp *WorkerResponse
	wg.Add(2)
	slow, other := mustRequest(t, split, 0, 0), mustRequest(t, split, 1, 0)
	go func() {
		defer wg.Done()
		_, cancelled = p.Invoke(ctx, slow)
	}()
	go func() {
		defer wg.Done()
		resp, finished = p.Invoke(context.Background(), other)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for p.LiveProcesses() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the two workers never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if !errors.Is(cancelled, context.Canceled) {
		t.Fatalf("cancelled attempt: %v, want context.Canceled", cancelled)
	}
	if finished != nil || resp.Error != "" {
		t.Fatalf("the other attempt: %v %+v, want a clean response", finished, resp)
	}
	if n, idle := p.LiveProcesses(), idlePIDs(p); n != 1 || len(idle) != 1 {
		t.Fatalf("%d live, idle %v: want only the finished attempt's worker, warm", n, idle)
	}
}

// TestProcessInvokerStderrBounded: a worker that writes to stderr all the
// time (the Go runtime's scheduler trace, every millisecond) keeps at most
// a bounded tail of it, however many requests it serves.
func TestProcessInvokerStderrBounded(t *testing.T) {
	_, dir, split := protoFixture(t)
	p := newProcessInvoker(dir)
	defer p.Close()
	p.Env = append(p.Env, "GODEBUG=schedtrace=1,scheddetail=1")
	var w *workerProc
	tail := func() (n, c int) {
		w.stderr.mu.Lock()
		defer w.stderr.mu.Unlock()
		return len(w.stderr.buf), cap(w.stderr.buf)
	}
	for i := 0; i < 30; i++ {
		invokeClean(t, p, mustRequest(t, split, i%2, i))
		idle := idleWorkers(p)
		if len(idle) != 1 {
			t.Fatalf("request %d: %d idle workers, want the one warm worker", i, len(idle))
		}
		w = idle[0]
		if n, c := tail(); n > stderrTail || c > 2*stderrTail {
			t.Fatalf("request %d: stderr tail holds %d bytes in %d of capacity, bound %d", i, n, c, stderrTail)
		}
	}
	// Keep the warm worker writing until its tail is full.
	deadline := time.Now().Add(10 * time.Second)
	for n, _ := tail(); n < stderrTail; n, _ = tail() {
		if time.Now().After(deadline) {
			t.Fatalf("stderr tail holds %d bytes; the worker never filled it", n)
		}
		time.Sleep(time.Millisecond)
	}
	if n, c := tail(); n != stderrTail || c > 2*stderrTail {
		t.Fatalf("stderr tail holds %d bytes in %d of capacity, bound %d", n, c, stderrTail)
	}
}

// TestIdleWorkerDiesOfSIGTERM: between requests a worker keeps the
// default action of SIGTERM, so an idle warm worker ends at once instead of
// waiting on stdin for a request that will never come.
func TestIdleWorkerDiesOfSIGTERM(t *testing.T) {
	_, dir, split := protoFixture(t)
	p := newProcessInvoker(dir)
	defer p.Close()
	invokeClean(t, p, mustRequest(t, split, 0, 0))
	w := idleWorkers(p)[0]
	if err := w.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The worker's stdout reaches EOF when it exits.
	exited := make(chan error, 1)
	go func() { exited <- w.dec.Decode(new(WorkerResponse)) }()
	select {
	case err := <-exited:
		if err != io.EOF {
			t.Fatalf("idle worker wrote to stdout after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle worker still running 10 s after SIGTERM")
	}
	p.mu.Lock()
	p.idle = nil
	p.mu.Unlock()
	if exit := p.reap(w); exit == nil || !strings.Contains(exit.Error(), "signal: terminated") {
		t.Fatalf("worker exit: %v, want death by SIGTERM", exit)
	}
}

func TestTailBufferKeepsTheTail(t *testing.T) {
	var b tailBuffer
	var all []byte
	for i := 0; i < 500; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i%26)}, i%97+(i%5)*2000)
		all = append(all, chunk...)
		if _, err := b.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if len(b.buf) > stderrTail || cap(b.buf) > 2*stderrTail {
			t.Fatalf("after %d writes: %d bytes in %d of capacity", i+1, len(b.buf), cap(b.buf))
		}
	}
	if !bytes.Equal(b.buf, all[len(all)-stderrTail:]) {
		t.Fatal("tail buffer does not hold the last bytes written")
	}
}

// FuzzWorkerRequest: whatever bytes arrive on a worker's stdin, decoding a
// request and its fragment yields an error or a plan, never a panic — a
// warm worker must survive a bad request to serve the next one.
func FuzzWorkerRequest(f *testing.F) {
	e := newPartitionedEngine(f, 4, 50)
	for i, q := range parallelQueries {
		stmt, err := sql.Parse(q)
		if err != nil {
			f.Fatal(err)
		}
		node, err := e.PlanQuery("db", stmt.(*sql.Select))
		if err != nil {
			f.Fatal(err)
		}
		split, err := e.SplitForCF(node, "fuzz", 2)
		if err != nil {
			continue // a shared-build split is not a CF request
		}
		req, err := NewWorkerRequest(split, 0, i)
		if err != nil {
			continue
		}
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"plan":{"kind":"limit"}}`))
	f.Add([]byte(`{"plan":{"kind":"project","child":{"kind":"scan","cols":[3]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req WorkerRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		node, scan, err := decodeWorkerPlan(req.Plan)
		if err == nil && (node == nil || scan == nil) {
			t.Fatalf("decoded %s to plan %v, scan %v and no error", data, node, scan)
		}
	})
}
