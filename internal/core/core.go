// Package core implements the paper's primary contribution: the
// Pixels-Turbo coordinator that natively supports flexible performance
// service levels (Immediate, Relaxed, Best-of-effort) and prices through
// heterogeneous resource scheduling over an auto-scaled VM cluster and an
// elastic cloud-function (CF) service (Sections II and III).
//
// Scheduling semantics follow Section III-A verbatim. A submission derives
// two flags from its level: whether pending time is acceptable and whether
// CF acceleration is acceptable.
//
//   - Immediate  {pending:no,  cf:yes}: dispatch now; if the VM cluster has
//     no free slot, accelerate with CF workers.
//   - Relaxed    {pending:yes, cf:yes}: wait up to the grace period for a
//     VM slot, giving the cluster time to scale out; on expiry fall back
//     to CF. Pending time is bounded by the grace period.
//   - Best-of-effort {pending:yes, cf:no}: run only when the VM cluster
//     has an idle slot and no Relaxed query is waiting; never use CF and
//     never trigger scale-out.
//
// There is one scheduler and one pending clock. Every submission — REST,
// embedded, simulated — enters through Submit, which stamps its arrival;
// whatever cannot start at once waits in the coordinator's per-tier queues
// (internal/admission), and a queue's head starts when the coordinator can
// place it: on a VM lease, or on CF (see placer.Place). Pending time, the grace
// period, bounded waits and deadlines are all measured from that arrival.
package core

import (
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/autoscale"
	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/vmsim"
)

// Status is a query's lifecycle state: queued → running → finished |
// failed for a query that executes (the four statuses of Sec. IV-A(3)), or
// queued → shed | canceled for one that never does.
type Status string

// Query statuses.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusFinished Status = "finished"
	StatusFailed   Status = "failed"
	StatusShed     Status = "shed"
	StatusCanceled Status = "canceled"
)

// Query is one scheduled query.
type Query struct {
	ID    string
	Level billing.Level
	SQL   string // display text (SQL or workload descriptor)

	// Payload is executor-specific: a bound plan for the real executor, a
	// modeled workload for the simulated one. It is nil once Done is
	// closed: a terminal query does not pin its plan.
	Payload any

	// ticket is the query's entry in its tier's queue — initialized at
	// Submit, admitted unless the result cache answers or parks the query.
	ticket    admission.Ticket
	submitted time.Time // arrival: fixed at Submit
	queueSpan *obs.Span // "admission-queue": arrival → start

	mu       sync.Mutex
	status   Status
	started  time.Time
	ended    time.Time
	err      error
	result   *engine.Result
	released bool // result's rows dropped under resultRetentionBytes
	usedCF   bool
	usage    billing.ResourceUsage
	bill     Bill // set by finalize
	done     chan struct{}

	// Result-cache state (see Submit): cacheKey is set on the query
	// elected to fill a missing cache entry and on queries waiting for
	// that fill, cacheWaiting on the waiters, cacheHit on queries answered
	// from the cache (including settled waiters).
	cacheKey     string
	cacheWaiting bool
	cacheHit     bool
}

// Status returns the current lifecycle state.
func (q *Query) Status() Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.status
}

// Result returns the materialized result once finished (nil otherwise, and
// always nil under the simulated executor). Once Released, it is the
// result's header only: columns, types, stats and cache provenance, no
// rows.
func (q *Query) Result() *engine.Result {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.result
}

// Released reports whether the coordinator dropped the query's rows to
// keep finished results within resultRetentionBytes. It is what tells a
// released result from one that had no rows.
func (q *Query) Released() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.released
}

// release drops the query's rows, keeping a header copy of its result; the
// Result itself may be shared with the result cache and is not touched.
func (q *Query) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	header := *q.result
	header.Rows = nil
	q.result, q.released = &header, true
}

// Bill is what a query was billed: its ledger row's billed figures.
type Bill struct {
	BytesScanned int64
	ListPrice    float64
	ResourceCost float64
}

// Bill returns the query's bill. A query that executed, or was answered
// from the result cache, has it from the moment its terminal status is
// published; a query that never executed is billed nothing.
func (q *Query) Bill() Bill {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bill
}

// Err returns the failure cause, if any.
func (q *Query) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Done returns a channel closed when the query reaches a terminal status.
func (q *Query) Done() <-chan struct{} { return q.done }

// QueuePosition returns the query's 1-based dequeue position in its tier's
// queue and that queue's depth (0, depth when it is not waiting there).
func (q *Query) QueuePosition() (pos, depth int) { return q.ticket.Position() }

// Deadline returns the completion deadline the query was queued under
// (zero when the scheduler runs without bounds and the request set none).
func (q *Query) Deadline() time.Time { return q.ticket.Deadline() }

// Shed returns why a shed query was turned away and when to retry.
func (q *Query) Shed() (reason string, retryAfter time.Duration) { return q.ticket.Shed() }

// Times returns (submitted, started, ended); zero values where not yet
// reached.
func (q *Query) Times() (submitted, started, ended time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.submitted, q.started, q.ended
}

// UsedCF reports whether CF acceleration executed the query.
func (q *Query) UsedCF() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.usedCF
}

// Outcome is what an executor reports for a completed execution.
type Outcome struct {
	Err    error
	Stats  engine.Stats
	Result *engine.Result
}

// TaskOutcome is what one CF worker task reports.
type TaskOutcome struct {
	Err   error
	Stats engine.Stats
}

// CFJob is a query decomposed into CF worker tasks plus a merge step.
type CFJob interface {
	// NumTasks returns the worker count.
	NumTasks() int
	// RunTask executes task i on worker inv, calling done exactly once
	// (possibly asynchronously, but always via the coordinator's clock in
	// simulation). Only a simulated job waits inv.StartDelay.
	RunTask(i int, inv *cfsim.Invocation, done func(TaskOutcome))
	// Merge combines worker outputs into the final result after every
	// task succeeded. A job of zero tasks goes straight to Merge, which is
	// then the whole query.
	Merge(done func(Outcome))
	// Abort is called instead of Merge when a task exhausted its retries:
	// it discards whatever the tasks that did succeed left behind.
	Abort()
}

// Executor abstracts query execution so the coordinator schedules real SQL
// (PlannedExecutor) and modeled workloads (SimExecutor) identically.
type Executor interface {
	// VMRun executes the whole query on one VM slot.
	VMRun(q *Query, done func(Outcome))
	// CFPlan splits the query into at most maxParts worker tasks.
	CFPlan(q *Query, maxParts int) (CFJob, error)
}

// Config parameterizes the coordinator.
type Config struct {
	// GracePeriod is the Relaxed queue bound (default 5 minutes, the
	// paper's example value).
	GracePeriod time.Duration
	// CFMaxParts caps CF workers per query (default 8).
	CFMaxParts int
	// CFTaskRetries is how many times a failed CF task is retried on a
	// fresh worker before the query fails (default 2).
	CFTaskRetries int
	// Admission bounds the tier queues: queue caps, bounded waits, completion
	// deadlines, and with them load shedding. Nil means no bounds — nothing
	// is capped, timed out or shed, which is the paper's scheduler; a
	// zero-valued Config means the built-in bounds. Either way a Relaxed
	// query's bounded wait is the grace period.
	Admission *admission.Config
	// ResultCache, when set, serves repeat queries from cached results:
	// Submit consults it (by the payload's ResultKey) before the query is
	// queued or placed anywhere, misses elect a single fill query others wait on
	// (single-flight — the batch-query optimization the paper's conclusion
	// points at), and successful fills populate it. A hit bills zero bytes
	// scanned — nothing was scanned.
	ResultCache ResultCache
	// SlowQueryThreshold, when positive, logs every query whose total
	// latency (submit to finish) reaches it — tier, phase timings, bytes
	// scanned and the SQL text.
	SlowQueryThreshold time.Duration
	// TraceStore, when set, retains finished queries' span trees (for
	// queries submitted with a trace) so the server can serve
	// GET /v1/query/{id}/trace after the fact.
	TraceStore *obs.TraceStore
}

// ResultCache is the coordinator's seam to a materialized-result cache
// (implemented by internal/qcache.ResultCache). Get must return a
// hit-view result with Cached set and Stats reduced to RowsReturned;
// implementations are responsible for staleness (core never invalidates —
// qcache keys embed table generations, so stale entries are unreachable).
type ResultCache interface {
	Get(key string) (*engine.Result, bool)
	Put(key string, res *engine.Result)
}

func (c Config) withDefaults() Config {
	if c.GracePeriod <= 0 {
		c.GracePeriod = 5 * time.Minute
	}
	if c.CFMaxParts <= 0 {
		c.CFMaxParts = 8
	}
	if c.CFTaskRetries < 0 {
		c.CFTaskRetries = 0
	} else if c.CFTaskRetries == 0 {
		c.CFTaskRetries = 2
	}
	return c
}

// Coordinator is the long-running component of Pixels-Turbo: it manages
// query scheduling across the VM cluster and the CF service, collects
// execution statistics and writes the billing ledger.
type Coordinator struct {
	clock    vclock.Clock
	cfg      Config
	cluster  *vmsim.Cluster
	cf       *cfsim.Service
	executor Executor
	ledger   *billing.Ledger
	queue    *admission.Controller // the tier queues; placer is how they see the coordinator

	mu           sync.Mutex
	nextID       int
	queries      map[string]*Query
	runningCF    int // queries currently executing via CF (demand signal)
	runningVMBE  int // Best-of-effort queries on VM slots (hidden from demand)
	finished     int
	failed       int
	cacheFill    map[string]*Query   // result key -> in-flight fill query
	cacheWaiters map[string][]*Query // result key -> queries awaiting the fill
	cacheHits    int

	// records lists every terminal query, oldest first; the queries map
	// holds exactly these plus the live ones. records[:heldFrom] hold no
	// rows, and the rest that do hold heldBytes of them.
	records   []terminalRecord
	heldFrom  int
	heldBytes int64
	held      int // records holding rows
}

// The coordinator keeps what it knows of terminal queries under two bounds.
// Past resultRetentionBytes of rows the oldest rows are released — a
// released query keeps its status, times, bill, trace and result header —
// and the newest are always kept, however large. Past terminalRecords
// terminal queries the oldest is forgotten altogether: it leaves the
// queries map, and only Issued still knows its ID. Its ledger row and
// stored trace stay.
const (
	resultRetentionBytes = 16 << 20
	terminalRecords      = 4096
)

// terminalRecord is a terminal query and, while it holds rows, their
// estimated size (engine.Result.MemSize, taken once at finalize).
type terminalRecord struct {
	q     *Query
	size  int64
	holds bool
}

// NewCoordinator wires the scheduler to its resources. The cluster's
// capacity events re-evaluate the queues.
func NewCoordinator(clock vclock.Clock, cfg Config, cluster *vmsim.Cluster, cf *cfsim.Service, ex Executor, ledger *billing.Ledger) *Coordinator {
	c := &Coordinator{
		clock:        clock,
		cfg:          cfg.withDefaults(),
		cluster:      cluster,
		cf:           cf,
		executor:     ex,
		ledger:       ledger,
		queries:      make(map[string]*Query),
		cacheFill:    make(map[string]*Query),
		cacheWaiters: make(map[string][]*Query),
	}
	c.queue = admission.NewPlaced(clock, cfg.Admission, (*placer)(c))
	cluster.SetOnReady(c.queue.Dispatch)
	return c
}

// Ledger returns the billing ledger.
func (c *Coordinator) Ledger() *billing.Ledger { return c.ledger }

// Config returns the effective configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// Submit schedules a query at a service level and returns its handle. It is
// the only way in: the arrival stamped here is what pending time, the grace
// period, bounded waits and deadlines are measured from.
func (c *Coordinator) Submit(sqlText string, level billing.Level, payload any) *Query {
	q := &Query{
		Level:     level,
		SQL:       sqlText,
		Payload:   payload,
		status:    StatusQueued,
		submitted: c.clock.Now(),
		done:      make(chan struct{}),
	}
	pp, _ := payload.(PlanPayload)
	req := admission.Request{Level: level, Arrival: q.submitted, Deadline: pp.Deadline, Owner: q}
	if level == billing.Relaxed {
		req.Wait = c.cfg.GracePeriod
	}
	c.queue.Init(&q.ticket, req)
	q.queueSpan = pp.Trace.Root().StartChild("admission-queue")

	// Result-cache fast path, at arrival and ahead of the queues: a hit
	// finalizes immediately (no queue entry, no VM slot, no CF, zero bytes
	// billed — so it is never queued behind anything or shed) and a miss
	// elects exactly one fill query per key — concurrent identical
	// submissions wait for it instead of executing redundantly. The lookup,
	// waiter registration and fill election share c.mu with the fill's
	// completion in finalize, so there is no window where a second
	// execution can slip between a fill finishing and its Put landing.
	var hit *engine.Result
	parked := false
	c.mu.Lock()
	c.nextID++
	q.ID = queryID(c.nextID)
	c.queries[q.ID] = q
	if rc := c.cfg.ResultCache; rc != nil && pp.ResultKey != "" {
		if res, ok := rc.Get(pp.ResultKey); ok {
			c.cacheHits++
			hit, q.cacheHit = res, true
		} else if c.cacheFill[pp.ResultKey] != nil {
			q.cacheKey, q.cacheWaiting = pp.ResultKey, true
			c.cacheWaiters[pp.ResultKey] = append(c.cacheWaiters[pp.ResultKey], q)
			parked = true
		} else {
			c.cacheFill[pp.ResultKey] = q
			q.cacheKey = pp.ResultKey
		}
	}
	c.mu.Unlock()

	switch {
	case hit != nil:
		pp.Trace.Root().Event("result-cache-hit", nil)
		c.finalize(q, Outcome{Stats: hit.Stats, Result: hit})
	case !parked:
		c.queue.Admit(&q.ticket)
	}
	return q
}

// Get returns a query by ID: a live query, or one of the last
// terminalRecords terminal ones.
func (c *Coordinator) Get(id string) (*Query, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	q, ok := c.queries[id]
	return q, ok
}

// Issued reports whether id is an ID Submit handed out — including one
// whose record has since been forgotten, which Get no longer finds.
func (c *Coordinator) Issued(id string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "q-"))
	if err != nil || n < 1 || queryID(n) != id {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return n <= c.nextID
}

func queryID(n int) string { return fmt.Sprintf("q-%06d", n) }

// Queries returns the known queries: every live one and the last
// terminalRecords terminal ones, in no particular order.
func (c *Coordinator) Queries() []*Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Query, 0, len(c.queries))
	for _, q := range c.queries {
		out = append(out, q)
	}
	return out
}

// placer is the coordinator as the queues see it.
type placer Coordinator

// Place decides whether a queued query can start now, and on what. Any
// level runs on a VM slot when the cluster has one — "relaxed or
// best-of-effort queries may be executed immediately if the VM cluster is
// available" (Sec. III-B) — and the lease is asked for here, at placement
// time, because slots are also taken behind the scheduler's back. Without
// one, Immediate accelerates with CFs while the CF service has room for one
// more job, Relaxed does once its grace period has run out, and
// Best-of-effort never does.
func (p *placer) Place(t *admission.Ticket) (start func(), ok bool) {
	c, q := (*Coordinator)(p), t.Owner.(*Query)
	if lease, ok := c.cluster.TryAcquire(); ok {
		return func() { c.runOnVM(q, lease) }, true
	}
	switch q.Level {
	case billing.Immediate:
		ok = c.cf.Active()+c.cfg.CFMaxParts <= c.cf.Config().MaxConcurrency
	case billing.Relaxed:
		ok = !c.clock.Now().Before(q.submitted.Add(c.cfg.GracePeriod))
	}
	if !ok {
		return nil, false
	}
	return func() { c.runOnCF(q) }, true
}

// Shed ends a query its queue turned away.
func (p *placer) Shed(t *admission.Ticket) {
	q := t.Owner.(*Query)
	reason, _ := t.Shed()
	(*Coordinator)(p).retire(q, StatusShed, fmt.Errorf("core: shed by the %s tier (%s)", q.Level, reason))
}

// begin marks q running on the one clock and records where it was placed.
func (c *Coordinator) begin(q *Query, placement string) {
	now := c.clock.Now()
	q.mu.Lock()
	q.status = StatusRunning
	q.started = now
	q.usedCF = placement == "cf"
	q.mu.Unlock()
	observeStart(q, now, placement)
}

// observeStart closes the queue span and feeds the pending-time and
// placement metrics: once per query, at the instant its pending time ends.
func observeStart(q *Query, at time.Time, placement string) {
	q.queueSpan.End()
	tier := q.Level.String()
	obs.QueryPendingSeconds.Observe(at.Sub(q.submitted).Seconds(), tier)
	obs.QueryPlacementsTotal.Inc(tier, placement)
}

// runOnVM executes q on one VM slot.
func (c *Coordinator) runOnVM(q *Query, lease *vmsim.Lease) {
	c.begin(q, "vm")
	if q.Level == billing.BestEffort {
		c.mu.Lock()
		c.runningVMBE++
		c.mu.Unlock()
	}

	c.executor.VMRun(q, func(out Outcome) {
		end := c.clock.Now()
		execSeconds := end.Sub(q.started).Seconds()
		q.mu.Lock()
		// VM attribution: one slot for the execution duration, expressed
		// in VM-equivalent seconds.
		q.usage.VMSeconds += execSeconds / float64(billing.Default().VMSlots)
		q.usage.S3Gets += int64(out.Stats.RowGroupsRead)
		q.mu.Unlock()
		lease.Release()
		if q.Level == billing.BestEffort {
			c.mu.Lock()
			c.runningVMBE--
			c.mu.Unlock()
		}
		c.finalize(q, out)
	})
}

// runOnCF executes q through CF workers plus a coordinator-side merge.
func (c *Coordinator) runOnCF(q *Query) {
	c.begin(q, "cf")
	c.mu.Lock()
	c.runningCF++
	c.mu.Unlock()

	job, err := c.executor.CFPlan(q, c.cfg.CFMaxParts)
	if err != nil {
		c.mu.Lock()
		c.runningCF--
		c.mu.Unlock()
		c.finalize(q, Outcome{Err: err})
		return
	}

	n := job.NumTasks()
	if n == 0 {
		// Nothing to hand to workers: the merge step is the whole query.
		c.settleCF(q, job, engine.Stats{}, nil)
		return
	}
	var jobMu sync.Mutex
	remaining := n
	var taskStats engine.Stats
	var jobErr error

	var launch func(task, attempt int)
	taskDone := func(task, attempt int, inv *cfsim.Invocation, out TaskOutcome) {
		failed := out.Err != nil || inv.WillFail
		if failed {
			inv.Fail()
		} else {
			inv.Finish()
		}
		// Attribute CF usage to the query.
		dur := c.clock.Now().Sub(inv.Started).Seconds()
		q.mu.Lock()
		q.usage.CFGBSeconds += dur * c.cf.Config().MemoryGB
		q.usage.CFInvocations++
		q.mu.Unlock()

		if failed && attempt < c.cfg.CFTaskRetries {
			launch(task, attempt+1)
			return
		}
		// The task is settled, one way or the other; whoever settles the
		// last one settles the query.
		jobMu.Lock()
		if !failed {
			taskStats.Add(out.Stats)
		} else if jobErr == nil {
			jobErr = out.Err
			if jobErr == nil {
				jobErr = fmt.Errorf("core: CF worker failed (task %d after %d attempts)", task, attempt+1)
			}
		}
		remaining--
		last, stats, err := remaining == 0, taskStats, jobErr
		jobMu.Unlock()
		if last {
			c.settleCF(q, job, stats, err)
		}
	}

	launch = func(task, attempt int) {
		c.cf.Request(func(inv *cfsim.Invocation) {
			job.RunTask(task, inv, func(out TaskOutcome) {
				taskDone(task, attempt, inv, out)
			})
		})
	}
	for i := 0; i < n; i++ {
		launch(i, 0)
	}
}

// settleCF finishes a CF-executed query after all tasks completed.
func (c *Coordinator) settleCF(q *Query, job CFJob, stats engine.Stats, jobErr error) {
	if jobErr != nil {
		// A failed query carries zero stats and bills zero bytes, exactly
		// like a failed VM run — the sibling tasks that did succeed scanned
		// for nothing, and their intermediates go with them.
		job.Abort()
		c.mu.Lock()
		c.runningCF--
		c.mu.Unlock()
		c.finalize(q, Outcome{Err: jobErr})
		return
	}
	job.Merge(func(out Outcome) {
		out.Stats.Add(stats)
		q.mu.Lock()
		q.usage.S3Puts += int64(job.NumTasks()) // intermediate writes
		q.usage.S3Gets += int64(out.Stats.RowGroupsRead)
		q.mu.Unlock()
		if out.Err != nil {
			out = Outcome{Err: out.Err} // a failed merge bills nothing either
		} else if out.Result != nil {
			out.Result.Stats = out.Stats // the whole query's, not the merge's
		}
		c.mu.Lock()
		c.runningCF--
		c.mu.Unlock()
		c.finalize(q, out)
	})
}

// finalize records the outcome of a query that executed (or was answered
// from the result cache), writes the bill and closes the handle.
// Everything a client can ask about a terminal query — its bill, the
// ledger row, the stored trace, the metrics — is written while q.mu is
// held and the terminal status is published last, so whoever observes
// "finished" or "failed" finds all of it already there. The plan is
// dropped with it, and the query joins the terminal records.
func (c *Coordinator) finalize(q *Query, out Outcome) {
	var size int64
	if out.Result != nil {
		size = out.Result.MemSize()
	}
	c.mu.Lock()
	if out.Err != nil {
		c.failed++
	} else {
		c.finished++
	}
	c.mu.Unlock()

	end := c.clock.Now()
	q.mu.Lock()
	q.ended = end
	onSlot := !q.started.IsZero()
	if !onSlot {
		// The query never took a slot of its own — a result-cache hit, or a
		// waiter settled from a fill. Its whole life was pending; execution
		// was instantaneous.
		q.started = end
		observeStart(q, end, "cache")
	}
	q.result = out.Result
	q.err = out.Err
	status := StatusFinished
	bill := billing.QueryBill{
		QueryID:      q.ID,
		Level:        q.Level,
		SubmitTime:   q.submitted,
		StartTime:    q.started,
		EndTime:      q.ended,
		BytesScanned: out.Stats.BytesScanned,
		RowsReturned: out.Stats.RowsReturned,
		UsedCF:       q.usedCF,
		Usage:        q.usage,
		CacheHit:     q.cacheHit,
	}
	if out.Err != nil {
		status = StatusFailed
		bill.Error = out.Err.Error()
	}
	bill.Status = string(status)
	prices := billing.Default()
	bill.ListPrice = prices.ListPrice(q.Level, bill.BytesScanned)
	bill.ResourceCost = prices.Cost(q.usage)
	q.bill = Bill{BytesScanned: bill.BytesScanned, ListPrice: bill.ListPrice, ResourceCost: bill.ResourceCost}
	if c.ledger != nil {
		c.ledger.Append(bill)
	}
	c.observeFinished(q, bill)
	q.Payload = nil // executed, and its trace is stored
	q.status = status
	ck := q.cacheKey
	q.mu.Unlock()
	close(q.done)

	// For a result-cache fill, publish the result and settle the waiters.
	// Put and waiter collection happen under c.mu, the same lock the
	// dispatch fast path holds for its Get-or-register step, so a new
	// submission either sees the cached result or becomes the next fill;
	// it can never re-execute a query whose fill just completed.
	var waiters []*Query
	c.mu.Lock()
	c.retain(q, out.Result != nil, size)
	if ck != "" && c.cacheFill[ck] == q {
		if out.Err == nil && out.Result != nil && c.cfg.ResultCache != nil {
			c.cfg.ResultCache.Put(ck, out.Result)
		}
		delete(c.cacheFill, ck)
		waiters = c.cacheWaiters[ck]
		delete(c.cacheWaiters, ck)
		c.cacheHits += len(waiters)
	}
	c.mu.Unlock()
	if len(waiters) > 0 {
		// Success settles waiters as cache hits (shared rows, zero bytes
		// billed); failure propagates the error without charging them for
		// bytes the fill scanned before dying.
		hitOut := Outcome{Err: out.Err}
		if out.Err == nil && out.Result != nil {
			hit := out.Result.HitView()
			hitOut = Outcome{Stats: hit.Stats, Result: hit}
		}
		for _, w := range waiters {
			if hitOut.Err == nil {
				w.mu.Lock()
				w.cacheHit = true
				w.mu.Unlock()
			}
			c.finalize(w, hitOut)
		}
	}
	if onSlot {
		// The queue books the completion (deadline hit or miss, the
		// service-time estimate) and looks for work the freed capacity takes.
		c.queue.Complete(&q.ticket)
	}
}

// retain adds a terminal query to the records, with its rows' size when
// it holds any, and applies both bounds: it forgets the oldest record past
// terminalRecords, and releases the oldest rows while they exceed
// resultRetentionBytes, never the newest. Called with c.mu held.
func (c *Coordinator) retain(q *Query, holds bool, size int64) {
	c.records = append(c.records, terminalRecord{q: q, size: size, holds: holds})
	if holds {
		c.heldBytes += size
		c.held++
	}
	if len(c.records) > terminalRecords {
		old := c.records[0]
		c.records[0] = terminalRecord{} // the backing array must not pin it
		c.records = c.records[1:]
		delete(c.queries, old.q.ID)
		if old.holds {
			c.heldBytes -= old.size
			c.held--
		}
		c.heldFrom = max(c.heldFrom-1, 0)
	}
	for c.heldBytes > resultRetentionBytes && c.held > 1 {
		r := &c.records[c.heldFrom]
		c.heldFrom++
		if r.holds {
			r.holds = false
			c.heldBytes -= r.size
			c.held--
			r.q.release()
		}
	}
}

// observeFinished records a finished (or failed) query into the process
// metrics, closes out and stores its trace, and emits the threshold-gated
// slow-query log line. Called once per query from finalize, with q.mu held.
func (c *Coordinator) observeFinished(q *Query, bill billing.QueryBill) {
	tier := q.Level.String()
	execSec := bill.EndTime.Sub(bill.StartTime).Seconds()
	pendSec := bill.StartTime.Sub(bill.SubmitTime).Seconds()
	obs.QueriesTotal.Inc(tier, bill.Status)
	obs.QueryExecSeconds.Observe(execSec, tier)
	obs.BilledBytesTotal.Add(bill.BytesScanned, tier)

	if tr := queryTrace(q); tr != nil {
		root := tr.Root()
		root.SetAttr("query_id", q.ID)
		root.SetAttr("tier", tier)
		root.SetAttr("status", bill.Status)
		root.SetAttr("used_cf", bill.UsedCF)
		root.SetAttr("cache_hit", bill.CacheHit)
		root.SetAttr("bytes_scanned", bill.BytesScanned)
		root.SetAttr("rows_returned", bill.RowsReturned)
		root.End()
		c.cfg.TraceStore.Put(q.ID, tr.Data())
	}

	if th := c.cfg.SlowQueryThreshold; th > 0 {
		if total := bill.EndTime.Sub(bill.SubmitTime); total >= th {
			log.Printf("pixels: slow query %s [%s] total=%v pending=%.3fs exec=%.3fs scanned=%dB status=%s sql=%q",
				q.ID, tier, total.Round(time.Millisecond), pendSec, execSec,
				bill.BytesScanned, bill.Status, q.SQL)
		}
	}
}

// queryTrace extracts the trace a submission carried, if any.
func queryTrace(q *Query) *obs.Trace {
	if pp, ok := q.Payload.(PlanPayload); ok {
		return pp.Trace
	}
	return nil
}

// ErrNotQueued is returned by Cancel for queries that are past waiting:
// running, or already terminal.
var ErrNotQueued = errors.New("core: query is not queued")

// ErrUnknownQuery is returned by Cancel for an ID Get does not find:
// never issued, or a terminal record already forgotten (see Issued).
var ErrUnknownQuery = errors.New("core: query not found")

// Cancel aborts a waiting query of any tier: it leaves its queue (or the
// waiters of an in-flight result-cache fill) and ends canceled, having
// never executed. Running queries cannot be canceled.
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	q, ok := c.queries[id]
	parked := false
	if ok {
		q.mu.Lock()
		ck, waiting := q.cacheKey, q.cacheWaiting
		q.mu.Unlock()
		if waiting {
			ws := c.cacheWaiters[ck]
			for i, w := range ws {
				if w == q {
					c.cacheWaiters[ck] = append(ws[:i], ws[i+1:]...)
					parked = true
					break
				}
			}
		}
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownQuery, id)
	}
	if !parked && !c.queue.Cancel(&q.ticket) {
		return fmt.Errorf("%w (%s is %s)", ErrNotQueued, id, q.Status())
	}
	c.retire(q, StatusCanceled, errors.New("core: canceled by user"))
	return nil
}

// retire ends a query that never started — shed by its queue, or canceled
// — with the given terminal status. It executed nothing, so it bills
// nothing and writes no ledger row, and its trace is dropped with it. A
// retired result-cache fill leader hands the fill to its first waiter, which
// joins its tier's queue, so the others are not stranded.
func (c *Coordinator) retire(q *Query, status Status, cause error) {
	end := c.clock.Now()
	q.mu.Lock()
	q.status, q.ended, q.err = status, end, cause
	q.Payload = nil
	ck := q.cacheKey
	q.mu.Unlock()
	close(q.done)

	var next *Query
	c.mu.Lock()
	c.retain(q, false, 0)
	if ck != "" && c.cacheFill[ck] == q {
		delete(c.cacheFill, ck)
		if ws := c.cacheWaiters[ck]; len(ws) > 0 {
			next = ws[0]
			c.cacheWaiters[ck] = ws[1:]
			c.cacheFill[ck] = next
			next.mu.Lock()
			next.cacheWaiting = false
			next.mu.Unlock()
		}
	}
	c.mu.Unlock()
	if next != nil {
		c.queue.Admit(&next.ticket)
	}
}

// CacheHit reports whether the query was answered from the result cache
// (directly, or by waiting on an in-flight fill).
func (q *Query) CacheHit() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cacheHit
}

// CacheHitCount reports how many queries were answered from the result
// cache since startup.
func (c *Coordinator) CacheHitCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cacheHits
}

// Admission returns the tier queues' observable state, with the VM
// cluster's slots — what the queues' heads are placed on — as the totals.
func (c *Coordinator) Admission() admission.Snapshot {
	s := c.queue.Snapshot()
	m := c.cluster.Snapshot()
	s.TotalSlots, s.UsedSlots = m.TotalSlots, m.BusySlots
	return s
}

// Metrics supplies the autoscaler's demand signal. Only Immediate and
// Relaxed work is visible: queued queries of those tiers plus queries that
// had to fall back to CF count as unmet demand, while Best-of-effort work —
// queued or already holding an idle slot — is invisible and never triggers
// scale-out (Sec. III-B(3)).
func (c *Coordinator) Metrics() autoscale.Metrics {
	s := c.cluster.Snapshot()
	demand := c.queue.Queued(billing.Immediate, billing.Relaxed)
	c.mu.Lock()
	demand += c.runningCF
	busy := s.BusySlots - c.runningVMBE
	c.mu.Unlock()
	if busy < 0 {
		busy = 0
	}
	return autoscale.Metrics{
		Time:         s.Time,
		Running:      s.Running,
		Booting:      s.Booting,
		TotalSlots:   s.TotalSlots,
		BusySlots:    busy,
		QueuedDemand: demand,
		Utilization:  s.Utilization,
	}
}

// Counts reports (finished, failed) query totals.
func (c *Coordinator) Counts() (finished, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.finished, c.failed
}
