// Package admission holds the scheduler's service-level queues. The paper
// sells flexible service levels with matching prices; these queues are what
// makes the levels mean something under load: one bounded queue per tier
// with deadline-aware (earliest-deadline-first) dequeue and strict priority
// across tiers (immediate > relaxed > best-of-effort). A tier's head starts
// when the scheduler that owns the queues can place it — the Placer seam —
// not when a counter allows, so capacity is whatever the scheduler really
// has. When the system is overloaded the cheap tier sheds first — a
// structured rejection carrying a Retry-After estimate — while the paying
// tiers queue with a bounded wait. Queued queries are cancellable (they
// never start and are never billed) and observable (queue position,
// deadline, shed reason).
package admission

import (
	"math"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// State is a ticket's queue state.
type State string

// Ticket states. A ticket that started stays Running: what became of the
// execution is the owner's business.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateShed     State = "shed"
	StateCanceled State = "canceled"
)

// Shed reasons, surfaced to clients as shed_reason.
const (
	// ShedQueueFull: the tier's bounded queue was at capacity on arrival.
	ShedQueueFull = "queue-full"
	// ShedQueueTimeout: the query waited its tier's bounded wait and still
	// could not be placed.
	ShedQueueTimeout = "queue-timeout"
	// ShedDeadline: the query's completion deadline passed while it was
	// still queued.
	ShedDeadline = "deadline"
	// ShedPressure: a best-of-effort arrival was turned away because it
	// could not start and paying tiers were already waiting — the "cheap
	// tiers shed first" rule.
	ShedPressure = "priority-pressure"
)

// Config bounds the queues. Map entries missing for a level fall back to
// that level's default; an explicit zero entry means zero (e.g. QueueCap 0
// = never queue, shed on arrival when the query cannot start).
type Config struct {
	// QueueCap bounds each tier's queue. Defaults: immediate 64, relaxed
	// 128, best-of-effort 8.
	QueueCap map[billing.Level]int
	// MaxWait bounds how long a query may sit queued: when it expires the
	// placer is asked one last time and a refusal sheds the query
	// (queue-timeout). Defaults: immediate 2s, relaxed 60s, best-of-effort
	// 10s. A Request.Wait overrides it per submission.
	MaxWait map[billing.Level]time.Duration
	// Deadline is the default completion deadline per tier (clients may
	// tighten it per request). EDF orders each queue by it. Defaults:
	// immediate 10s, relaxed 2m, best-of-effort 10m, and never less than
	// twice the submission's bounded wait — a query that starts at the last
	// permitted moment still gets as long to run as it was allowed to wait.
	Deadline map[billing.Level]time.Duration
}

// The built-in bounds (read-only).
var (
	defaultQueueCap = map[billing.Level]int{billing.Immediate: 64, billing.Relaxed: 128, billing.BestEffort: 8}
	defaultMaxWait  = map[billing.Level]time.Duration{
		billing.Immediate: 2 * time.Second, billing.Relaxed: time.Minute, billing.BestEffort: 10 * time.Second,
	}
	defaultDeadline = map[billing.Level]time.Duration{
		billing.Immediate: 10 * time.Second, billing.Relaxed: 2 * time.Minute, billing.BestEffort: 10 * time.Minute,
	}
)

func lookup[V any](m map[billing.Level]V, defs map[billing.Level]V, lev billing.Level) V {
	if v, ok := m[lev]; ok {
		return v
	}
	return defs[lev]
}

// Placer is the scheduler behind the queues: it knows what a query can run
// on. The controller calls Place with its lock held, so Place must not call
// back into the controller; start and Shed are called with no lock held.
type Placer interface {
	// Place reports whether t can start now. If so, whatever t runs on is
	// reserved for it and start — called exactly once — begins the
	// execution; the owner calls Complete when it ends.
	Place(t *Ticket) (start func(), ok bool)
	// Shed tells the owner the controller shed t; the reason and the retry
	// hint are on the ticket.
	Shed(t *Ticket)
}

// StartFunc begins a query's execution for a controller that has no
// Placer. It returns an opaque handle and a channel closed when the
// execution finishes (nil: already finished).
type StartFunc func() (handle any, done <-chan struct{})

// Request is one submission.
type Request struct {
	Level billing.Level
	// Arrival is when the query entered the system — the one instant its
	// bounded wait, its deadline and every reported wait are measured from.
	// Zero means now.
	Arrival time.Time
	// Deadline overrides the tier's default completion deadline when > 0.
	Deadline time.Duration
	// Wait overrides the tier's bounded wait when > 0 (the scheduler passes
	// a Relaxed query's grace period).
	Wait time.Duration
	// Owner is the scheduler's record for the query, handed back to its
	// Placer on the ticket.
	Owner any
	// Start runs the query when the controller has no Placer (see New).
	Start StartFunc
}

// Decision is the immediately observable outcome of a Submit.
type Decision struct {
	State State
	// QueuePosition is the 1-based EDF dequeue position (0 unless queued).
	QueuePosition int
	// QueueDepth is the tier's queue length after this submission.
	QueueDepth int
	Deadline   time.Time
	// RetryAfter estimates when capacity will free up (set on shed).
	RetryAfter time.Duration
	ShedReason string
}

// Ticket is one submission's queue entry. The owner allocates it (inside
// its own per-query record, so a query is retained once) and must not copy
// it after Init. Level, Owner and the deadline are fixed by Init; everything else is guarded by the controller's lock.
type Ticket struct {
	Level billing.Level
	Owner any

	c        *Controller
	deadline time.Time // zero: none
	expire   time.Time // when the queue timer fires; zero: never
	start    StartFunc

	seq       uint64
	heapIndex int
	started   time.Time
	state     State
	shedRsn   string
	retry     time.Duration
	timer     vclock.Timer
}

// State returns the ticket's current queue state ("" before Admit).
func (t *Ticket) State() State {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.state
}

// Deadline returns the completion deadline EDF schedules against (zero
// when the controller is unbounded and the request set none).
func (t *Ticket) Deadline() time.Time { return t.deadline }

// Shed returns why the ticket was shed and the backoff estimate attached
// then ("", 0 otherwise).
func (t *Ticket) Shed() (reason string, retryAfter time.Duration) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.shedRsn, t.retry
}

// Position returns the ticket's 1-based EDF position and its tier's queue
// depth (0, depth when not queued).
func (t *Ticket) Position() (pos, depth int) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	q := t.c.queues[t.Level]
	if t.state != StateQueued {
		return 0, q.Len()
	}
	return q.rank(t) + 1, q.Len()
}

// tierStats accumulates per-tier counters.
type tierStats struct {
	submitted, admitted, canceled, completed int64
	deadlineHit, deadlineMiss                int64
	shedByReason                             map[string]int64
}

// TierSnapshot is one tier's observable queue state.
type TierSnapshot struct {
	Level    string `json:"level"`
	Running  int    `json:"running"`
	Queued   int    `json:"queued"`
	QueueCap int    `json:"queue_cap"`

	Submitted     int64            `json:"submitted"`
	Admitted      int64            `json:"admitted"`
	Shed          int64            `json:"shed"`
	ShedByReason  map[string]int64 `json:"shed_by_reason,omitempty"`
	Canceled      int64            `json:"canceled"`
	Completed     int64            `json:"completed"`
	DeadlineHit   int64            `json:"deadline_hit"`
	DeadlineMiss  int64            `json:"deadline_miss"`
	MaxQueueDepth int              `json:"max_queue_depth"`
}

// Snapshot is the observable queue state (the /v1/admission payload). The
// slot totals are the owner's to fill in: the controller has none.
type Snapshot struct {
	TotalSlots int            `json:"total_slots"`
	UsedSlots  int            `json:"used_slots"`
	Tiers      []TierSnapshot `json:"tiers"`
}

// Controller is the tier queues plus their bookkeeping.
type Controller struct {
	clock  vclock.Clock
	cfg    *Config // nil: no caps, no bounded waits, no deadlines, nothing shed
	placer Placer

	mu     sync.Mutex
	used   map[billing.Level]int // started and not yet completed
	queues map[billing.Level]*edfQueue
	seq    uint64

	ewmaExecMs float64
	stats      map[billing.Level]*tierStats
	hwQueue    map[billing.Level]int
}

// New builds a standalone controller: with nothing to place on it starts
// every submission at once through its Request.Start, and books the
// completion when the returned channel closes.
func New(clock vclock.Clock, cfg Config) *Controller {
	c := NewPlaced(clock, &cfg, nil)
	c.placer = startNow{c}
	return c
}

// NewPlaced builds the queues for a scheduler: p decides what starts. A nil
// cfg means no bounds at all — nothing is capped, timed out or shed, and
// each tier dequeues in arrival order (the paper's scheduler).
func NewPlaced(clock vclock.Clock, cfg *Config, p Placer) *Controller {
	c := &Controller{
		clock:   clock,
		cfg:     cfg,
		placer:  p,
		used:    make(map[billing.Level]int),
		queues:  make(map[billing.Level]*edfQueue),
		stats:   make(map[billing.Level]*tierStats),
		hwQueue: make(map[billing.Level]int),
	}
	for _, lev := range billing.Levels() {
		c.queues[lev] = &edfQueue{}
		c.stats[lev] = &tierStats{shedByReason: make(map[string]int64)}
	}
	return c
}

// startNow is the Placer of a controller that owns no capacity.
type startNow struct{ c *Controller }

func (s startNow) Place(t *Ticket) (func(), bool) {
	return func() {
		var done <-chan struct{}
		if t.start != nil {
			_, done = t.start()
		}
		if done == nil {
			s.c.Complete(t)
			return
		}
		select {
		case <-done:
			s.c.Complete(t)
		default:
			// Still executing: wait for it off the submitter's goroutine.
			go func() {
				<-done
				s.c.Complete(t)
			}()
		}
	}, true
}

func (startNow) Shed(*Ticket) {}

func (c *Controller) queueCap(lev billing.Level) int {
	if c.cfg == nil {
		return math.MaxInt
	}
	return lookup(c.cfg.QueueCap, defaultQueueCap, lev)
}

func (c *Controller) payingTierWaitingLocked() bool {
	return c.queues[billing.Immediate].Len() > 0 || c.queues[billing.Relaxed].Len() > 0
}

// retryAfterLocked estimates when the tier will have drained enough to
// accept new work: (queued + running + 1) service times spread over the
// tier's running queries, from an EWMA of recent execution durations.
func (c *Controller) retryAfterLocked(lev billing.Level) time.Duration {
	est := c.ewmaExecMs
	if est <= 0 {
		est = 50
	}
	width := max(c.used[lev], 1)
	depth := c.queues[lev].Len() + c.used[lev] + 1
	d := time.Duration(est*float64(depth)/float64(width)) * time.Millisecond
	return min(max(d, 10*time.Millisecond), time.Minute)
}

func (c *Controller) shedLocked(t *Ticket, reason string) {
	t.state = StateShed
	t.shedRsn = reason
	t.retry = c.retryAfterLocked(t.Level)
	c.stats[t.Level].shedByReason[reason]++
	obs.AdmissionShedTotal.Inc(t.Level.String(), reason)
}

// Init fills a ticket's fixed fields from the request: its arrival, and
// from that the completion deadline and the instant its bounded wait
// expires. The ticket is not queued until Admit.
func (c *Controller) Init(t *Ticket, req Request) {
	*t = Ticket{Level: req.Level, Owner: req.Owner, c: c, start: req.Start, heapIndex: -1}
	arrival := req.Arrival
	if arrival.IsZero() {
		arrival = c.clock.Now()
	}
	wait, deadline := req.Wait, req.Deadline
	if c.cfg != nil {
		if wait <= 0 {
			wait = lookup(c.cfg.MaxWait, defaultMaxWait, req.Level)
		}
		if deadline <= 0 {
			if d, ok := c.cfg.Deadline[req.Level]; ok {
				deadline = d
			} else {
				deadline = max(defaultDeadline[req.Level], 2*wait)
			}
		}
	}
	if deadline > 0 {
		t.deadline = arrival.Add(deadline)
		t.expire = t.deadline
	}
	if wait > 0 {
		if e := arrival.Add(wait); t.expire.IsZero() || e.Before(t.expire) {
			t.expire = e
		}
	}
}

// placeLocked asks the placer about t, unless t is best-of-effort work
// behind a paying backlog: the cheap tier never starts ahead of it.
func (c *Controller) placeLocked(t *Ticket) (func(), bool) {
	if t.Level == billing.BestEffort && c.payingTierWaitingLocked() {
		return nil, false
	}
	return c.placer.Place(t)
}

func (c *Controller) startLocked(t *Ticket) {
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	t.state = StateRunning
	t.started = c.clock.Now()
	c.used[t.Level]++
	c.stats[t.Level].admitted++
}

// Admit runs the admission decision for an initialized ticket: start now
// when nothing of its tier is ahead of it and the placer has room, queue
// when the bounded queue has room, shed otherwise.
func (c *Controller) Admit(t *Ticket) {
	c.mu.Lock()
	c.seq++
	t.seq = c.seq
	c.stats[t.Level].submitted++

	q := c.queues[t.Level]
	var start func()
	placed := false
	if q.Len() == 0 {
		// Nothing ahead: start directly, bypassing the queue — a zero queue
		// cap must still accept work that can run right now.
		start, placed = c.placeLocked(t)
	}
	switch {
	case placed:
		c.startLocked(t)
	case q.Len() >= c.queueCap(t.Level):
		c.shedLocked(t, ShedQueueFull)
	case t.Level == billing.BestEffort && c.cfg != nil && c.payingTierWaitingLocked():
		c.shedLocked(t, ShedPressure)
	default:
		t.state = StateQueued
		q.push(t)
		c.hwQueue[t.Level] = max(c.hwQueue[t.Level], q.Len())
		if !t.expire.IsZero() {
			t.timer = c.clock.AfterFunc(t.expire.Sub(c.clock.Now()), func() { c.expired(t) })
		}
	}
	state := t.state
	c.mu.Unlock()

	switch state {
	case StateRunning:
		start()
	case StateShed:
		c.placer.Shed(t)
	default:
		// The newcomer may be its tier's earliest deadline.
		c.Dispatch()
	}
}

// Submit is Init plus Admit on a ticket of the controller's own.
func (c *Controller) Submit(req Request) (*Ticket, Decision) {
	t := new(Ticket)
	c.Init(t, req)
	c.Admit(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	dec := Decision{
		State:      t.state,
		QueueDepth: c.queues[t.Level].Len(),
		Deadline:   t.deadline,
		RetryAfter: t.retry,
		ShedReason: t.shedRsn,
	}
	if t.state == StateQueued {
		dec.QueuePosition = c.queues[t.Level].rank(t) + 1
	}
	return t, dec
}

// expired is a queued ticket's timer: past its deadline it is shed; at the
// end of its bounded wait the placer gets a last call — which is how a
// Relaxed query reaches CF at the end of its grace period — and only a
// refusal sheds it.
func (c *Controller) expired(t *Ticket) {
	c.mu.Lock()
	if t.state != StateQueued {
		c.mu.Unlock()
		return
	}
	var start func()
	placed := false
	pastDeadline := !t.deadline.IsZero() && !c.clock.Now().Before(t.deadline)
	if !pastDeadline {
		start, placed = c.placeLocked(t)
	}
	c.queues[t.Level].remove(t)
	switch {
	case placed:
		c.startLocked(t)
	case pastDeadline:
		c.shedLocked(t, ShedDeadline)
	default:
		c.shedLocked(t, ShedQueueTimeout)
	}
	c.mu.Unlock()
	if placed {
		start()
	} else {
		c.placer.Shed(t)
	}
}

// Dispatch starts queued tickets for as long as the placer takes them:
// tiers in strict priority order, earliest deadline first within a tier. A
// tier whose head is refused yields to the next. The owner calls it when
// capacity may have appeared.
func (c *Controller) Dispatch() {
	for {
		var start func()
		c.mu.Lock()
		for _, lev := range billing.Levels() {
			q := c.queues[lev]
			if q.Len() == 0 {
				continue
			}
			if s, ok := c.placeLocked(q.items[0]); ok {
				c.startLocked(q.popMin())
				start = s
				break
			}
		}
		c.mu.Unlock()
		if start == nil {
			return
		}
		start()
	}
}

// Complete books the end of a started ticket's execution — deadline hit or
// miss, and the service-time estimate behind Retry-After — and then looks
// for queued work the freed capacity can take.
func (c *Controller) Complete(t *Ticket) {
	c.mu.Lock()
	now := c.clock.Now()
	c.used[t.Level]--
	st := c.stats[t.Level]
	st.completed++
	if !t.deadline.IsZero() && now.After(t.deadline) {
		st.deadlineMiss++
	} else {
		st.deadlineHit++
	}
	ms := max(float64(now.Sub(t.started))/float64(time.Millisecond), 1)
	if c.ewmaExecMs == 0 {
		c.ewmaExecMs = ms
	} else {
		c.ewmaExecMs = 0.8*c.ewmaExecMs + 0.2*ms
	}
	c.mu.Unlock()
	c.Dispatch()
}

// Cancel removes a still-queued ticket from its queue: the query never
// starts and is never billed. It reports false when the ticket is not
// queued (never admitted, started, shed or already canceled).
func (c *Controller) Cancel(t *Ticket) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.state != StateQueued {
		return false
	}
	c.queues[t.Level].remove(t)
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	t.state = StateCanceled
	c.stats[t.Level].canceled++
	return true
}

// Queued returns how many queries of the given tiers are waiting.
func (c *Controller) Queued(levels ...billing.Level) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, lev := range levels {
		n += c.queues[lev].Len()
	}
	return n
}

// Snapshot returns the observable queue state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Snapshot
	for _, lev := range billing.Levels() {
		st := c.stats[lev]
		shed := int64(0)
		reasons := make(map[string]int64, len(st.shedByReason))
		for r, n := range st.shedByReason {
			shed += n
			reasons[r] = n
		}
		s.Tiers = append(s.Tiers, TierSnapshot{
			Level:         lev.String(),
			Running:       c.used[lev],
			Queued:        c.queues[lev].Len(),
			QueueCap:      c.queueCap(lev),
			Submitted:     st.submitted,
			Admitted:      st.admitted,
			Shed:          shed,
			ShedByReason:  reasons,
			Canceled:      st.canceled,
			Completed:     st.completed,
			DeadlineHit:   st.deadlineHit,
			DeadlineMiss:  st.deadlineMiss,
			MaxQueueDepth: c.hwQueue[lev],
		})
	}
	return s
}
