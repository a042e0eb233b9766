// Package admission is the service-level admission-control plane that sits
// between the REST server and the core coordinator. The paper sells
// flexible service levels with matching prices; this layer is what makes
// the levels mean something under load: every submission passes through a
// bounded per-tier queue with deadline-aware (earliest-deadline-first)
// dequeue, strict priority across tiers (immediate > relaxed >
// best-of-effort; work-conserving: a tier blocked on its slot cap yields to
// the next tier rather than idling a slot), and a fixed number of
// concurrency slots per tier. When the system is overloaded the cheap tiers
// shed first — a structured rejection carrying a Retry-After estimate —
// while the expensive tiers queue with a bounded wait. Queued queries are
// cancellable (they never consume a slot and are never billed) and
// observable (queue position, deadline, shed reason).
package admission

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// State is a ticket's admission lifecycle state.
type State string

// Ticket states. Queued and Running are live; Shed, Canceled and Done are
// terminal (Done only says the execution finished — the outcome lives with
// the executor's query handle).
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateShed     State = "shed"
	StateCanceled State = "canceled"
	StateDone     State = "done"
)

// Shed reasons, surfaced to clients as shed_reason.
const (
	// ShedQueueFull: the tier's bounded queue was at capacity on arrival.
	ShedQueueFull = "queue-full"
	// ShedQueueTimeout: the query waited its tier's bounded wait without
	// reaching a slot.
	ShedQueueTimeout = "queue-timeout"
	// ShedDeadline: the query's completion deadline passed while it was
	// still queued.
	ShedDeadline = "deadline"
	// ShedPressure: a best-of-effort arrival was turned away because its
	// tier had no free slot and paying tiers were already waiting — the
	// "cheap tiers shed first" rule.
	ShedPressure = "priority-pressure"
)

// Config parameterizes the controller. Map entries missing for a level
// fall back to that level's default; an explicit zero entry means zero
// (e.g. QueueCap 0 = never queue, shed on arrival when no slot is free).
type Config struct {
	// Slots is the per-tier concurrency cap. Defaults: immediate 4,
	// relaxed 4, best-of-effort 2.
	Slots map[billing.Level]int
	// QueueCap bounds each tier's queue. Defaults: immediate 64, relaxed
	// 128, best-of-effort 8.
	QueueCap map[billing.Level]int
	// MaxWait bounds how long a query may sit queued before it is shed
	// (queue-timeout). Defaults: immediate 2s, relaxed 60s, best-of-effort
	// 10s — the expensive tiers buy a longer bounded wait.
	MaxWait map[billing.Level]time.Duration
	// Deadline is the default completion deadline per tier (clients may
	// tighten it per request). EDF orders each queue by it. Defaults:
	// immediate 10s, relaxed 2m, best-of-effort 10m.
	Deadline map[billing.Level]time.Duration
}

func defaultSlots() map[billing.Level]int {
	return map[billing.Level]int{billing.Immediate: 4, billing.Relaxed: 4, billing.BestEffort: 2}
}

func defaultQueueCap() map[billing.Level]int {
	return map[billing.Level]int{billing.Immediate: 64, billing.Relaxed: 128, billing.BestEffort: 8}
}

func defaultMaxWait() map[billing.Level]time.Duration {
	return map[billing.Level]time.Duration{
		billing.Immediate: 2 * time.Second, billing.Relaxed: time.Minute, billing.BestEffort: 10 * time.Second,
	}
}

func defaultDeadline() map[billing.Level]time.Duration {
	return map[billing.Level]time.Duration{
		billing.Immediate: 10 * time.Second, billing.Relaxed: 2 * time.Minute, billing.BestEffort: 10 * time.Minute,
	}
}

func lookup[V any](m map[billing.Level]V, defs map[billing.Level]V, lev billing.Level) V {
	if m != nil {
		if v, ok := m[lev]; ok {
			return v
		}
	}
	return defs[lev]
}

// StartFunc begins an admitted query's execution and returns an opaque
// executor handle (the server stores the *core.Query here) plus a channel
// closed when execution finishes. The controller holds the query's slot
// until then.
type StartFunc func() (handle any, done <-chan struct{})

// Request is one submission.
type Request struct {
	// ID identifies the query across the admission and execution layers
	// (the server reserves it from the coordinator). Empty = controller
	// assigns one.
	ID    string
	Level billing.Level
	// Label is display text for observability (the server passes the SQL),
	// so a still-queued query's status block can echo what was submitted.
	Label string
	// Deadline overrides the tier's default completion deadline when > 0.
	Deadline time.Duration
	Start    StartFunc
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

// Ticket is the admission-side handle of one submission. All state is
// guarded by the controller's lock.
type Ticket struct {
	ID    string
	Level billing.Level
	Label string

	c         *Controller
	seq       uint64
	heapIndex int
	deadline  time.Time
	submitted time.Time
	started   time.Time
	finished  time.Time
	state     State
	shedRsn   string
	retry     time.Duration
	timer     vclock.Timer
	start     StartFunc
	handle    any
}

// State returns the ticket's current admission state.
func (t *Ticket) State() State {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.state
}

// Deadline returns the completion deadline EDF scheduled against.
func (t *Ticket) Deadline() time.Time {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.deadline
}

// Submitted returns when the ticket entered admission.
func (t *Ticket) Submitted() time.Time {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.submitted
}

// ShedReason returns why the ticket was shed ("" otherwise).
func (t *Ticket) ShedReason() string {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.shedRsn
}

// RetryAfter returns the backoff estimate attached when the ticket was
// shed (0 otherwise).
func (t *Ticket) RetryAfter() time.Duration {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.retry
}

// Handle returns the executor handle stored when the ticket started
// (nil while queued/shed).
func (t *Ticket) Handle() any {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.handle
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

// QueueWait reports how long the ticket sat queued before starting (or
// until now while still queued).
func (t *Ticket) QueueWait() time.Duration {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	switch {
	case t.state == StateQueued:
		return t.c.clock.Now().Sub(t.submitted)
	case t.started.IsZero():
		if t.finished.IsZero() {
			return 0
		}
		return t.finished.Sub(t.submitted)
	default:
		return t.started.Sub(t.submitted)
	}
}

// tierStats accumulates per-tier counters.
type tierStats struct {
	submitted, admitted, canceled, completed int64
	deadlineHit, deadlineMiss                int64
	shedByReason                             map[string]int64
}

// TierSnapshot is one tier's observable admission state.
type TierSnapshot struct {
	Level    string `json:"level"`
	Slots    int    `json:"slots"`
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

// Snapshot is the controller's observable state (the /v1/admission
// payload).
type Snapshot struct {
	TotalSlots int            `json:"total_slots"`
	UsedSlots  int            `json:"used_slots"`
	Tiers      []TierSnapshot `json:"tiers"`
}

// Controller is the admission control plane.
type Controller struct {
	clock vclock.Clock
	cfg   Config

	mu      sync.Mutex
	caps    map[billing.Level]int // per-tier slot counts, fixed at New
	used    map[billing.Level]int
	queues  map[billing.Level]*edfQueue
	tickets map[string]*Ticket
	seq     uint64

	ewmaExecMs float64
	stats      map[billing.Level]*tierStats
	hwQueue    map[billing.Level]int
}

// New builds a controller on the clock.
func New(clock vclock.Clock, cfg Config) *Controller {
	c := &Controller{
		clock:   clock,
		cfg:     cfg,
		caps:    make(map[billing.Level]int),
		used:    make(map[billing.Level]int),
		queues:  make(map[billing.Level]*edfQueue),
		tickets: make(map[string]*Ticket),
		stats:   make(map[billing.Level]*tierStats),
		hwQueue: make(map[billing.Level]int),
	}
	defs := defaultSlots()
	for _, lev := range billing.Levels() {
		c.caps[lev] = lookup(cfg.Slots, defs, lev)
		c.queues[lev] = &edfQueue{}
		c.stats[lev] = &tierStats{shedByReason: make(map[string]int64)}
	}
	return c
}

func (c *Controller) queueCap(lev billing.Level) int {
	return lookup(c.cfg.QueueCap, defaultQueueCap(), lev)
}

func (c *Controller) maxWaitFor(lev billing.Level) time.Duration {
	return lookup(c.cfg.MaxWait, defaultMaxWait(), lev)
}

func (c *Controller) deadlineFor(lev billing.Level) time.Duration {
	return lookup(c.cfg.Deadline, defaultDeadline(), lev)
}

func (c *Controller) canRunLocked(lev billing.Level) bool {
	return c.used[lev] < c.caps[lev]
}

func (c *Controller) payingTierWaitingLocked() bool {
	return c.queues[billing.Immediate].Len() > 0 || c.queues[billing.Relaxed].Len() > 0
}

// retryAfterLocked estimates when the tier will have drained enough to
// accept new work: (queued + running + 1) service times spread over the
// tier's slots, from an EWMA of recent execution durations.
func (c *Controller) retryAfterLocked(lev billing.Level) time.Duration {
	est := c.ewmaExecMs
	if est <= 0 {
		est = 50
	}
	slots := c.caps[lev]
	if slots < 1 {
		slots = 1
	}
	depth := c.queues[lev].Len() + c.used[lev] + 1
	d := time.Duration(est*float64(depth)/float64(slots)) * time.Millisecond
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

func (c *Controller) shedLocked(t *Ticket, reason string, _ time.Time) {
	t.state = StateShed
	t.shedRsn = reason
	t.retry = c.retryAfterLocked(t.Level)
	t.finished = c.clock.Now()
	c.stats[t.Level].shedByReason[reason]++
	obs.AdmissionShedTotal.Inc(t.Level.String(), reason)
}

// Submit runs the admission decision for one request: run now when the
// tier has a free slot, queue when the bounded queue has room, shed
// otherwise. The returned Decision reflects the post-dispatch state (a
// submission admitted straight to a free slot reports StateRunning).
func (c *Controller) Submit(req Request) (*Ticket, Decision) {
	c.mu.Lock()
	now := c.clock.Now()
	d := req.Deadline
	if d <= 0 {
		d = c.deadlineFor(req.Level)
	}
	c.seq++
	t := &Ticket{
		ID:        req.ID,
		Level:     req.Level,
		Label:     req.Label,
		c:         c,
		seq:       c.seq,
		heapIndex: -1,
		deadline:  now.Add(d),
		submitted: now,
		state:     StateQueued,
		start:     req.Start,
	}
	if t.ID == "" {
		t.ID = fmt.Sprintf("adm-%06d", c.seq)
	}
	c.tickets[t.ID] = t
	c.stats[req.Level].submitted++

	q := c.queues[req.Level]
	runNow := false
	switch {
	case q.Len() == 0 && c.canRunLocked(req.Level):
		// A free slot and nothing ahead: admit directly, bypassing the
		// queue — a zero queue cap must still accept work the tier can run
		// right now.
		t.state = StateRunning
		t.started = now
		c.used[req.Level]++
		c.stats[req.Level].admitted++
		obs.AdmissionQueueWaitSeconds.Observe(0, req.Level.String())
		runNow = true
	case q.Len() >= c.queueCap(req.Level):
		c.shedLocked(t, ShedQueueFull, now)
	case req.Level == billing.BestEffort && !c.canRunLocked(req.Level) && c.payingTierWaitingLocked():
		c.shedLocked(t, ShedPressure, now)
	default:
		q.push(t)
		if q.Len() > c.hwQueue[req.Level] {
			c.hwQueue[req.Level] = q.Len()
		}
		// Shed the query at min(deadline, bounded wait) if still queued.
		expire := t.deadline
		if mw := c.maxWaitFor(req.Level); mw > 0 {
			if e := now.Add(mw); e.Before(expire) {
				expire = e
			}
		}
		t.timer = c.clock.AfterFunc(expire.Sub(now), func() { c.queueExpired(t) })
	}
	c.mu.Unlock()

	if runNow {
		var done <-chan struct{}
		var handle any
		if t.start != nil {
			handle, done = t.start()
		}
		c.mu.Lock()
		t.handle = handle
		c.mu.Unlock()
		go func() {
			if done != nil {
				<-done
			}
			c.release(t)
		}()
	}
	c.dispatch()

	c.mu.Lock()
	dec := c.decisionLocked(t)
	c.mu.Unlock()
	return t, dec
}

func (c *Controller) decisionLocked(t *Ticket) Decision {
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
	return dec
}

// queueExpired sheds a ticket that exhausted its bounded wait (or whose
// deadline passed) while still queued.
func (c *Controller) queueExpired(t *Ticket) {
	c.mu.Lock()
	if t.state != StateQueued {
		c.mu.Unlock()
		return
	}
	c.queues[t.Level].remove(t)
	reason := ShedQueueTimeout
	if !c.clock.Now().Before(t.deadline) {
		reason = ShedDeadline
	}
	c.shedLocked(t, reason, c.clock.Now())
	c.mu.Unlock()
}

// nextLocked picks the next ticket to run — the earliest deadline of the
// most expensive tier that has both queued work and a free slot — removing
// it from its queue; nil when nothing is eligible.
func (c *Controller) nextLocked() *Ticket {
	for _, lev := range billing.Levels() {
		if c.queues[lev].Len() > 0 && c.canRunLocked(lev) {
			return c.queues[lev].popMin()
		}
	}
	return nil
}

// dispatch starts eligible queued tickets until slots or queues run out.
func (c *Controller) dispatch() {
	for {
		c.mu.Lock()
		t := c.nextLocked()
		if t == nil {
			c.mu.Unlock()
			return
		}
		if t.timer != nil {
			t.timer.Stop()
			t.timer = nil
		}
		t.state = StateRunning
		t.started = c.clock.Now()
		c.used[t.Level]++
		c.stats[t.Level].admitted++
		obs.AdmissionQueueWaitSeconds.Observe(t.started.Sub(t.submitted).Seconds(), t.Level.String())
		start := t.start
		c.mu.Unlock()

		var done <-chan struct{}
		var handle any
		if start != nil {
			handle, done = start()
		}
		c.mu.Lock()
		t.handle = handle
		c.mu.Unlock()
		go func(t *Ticket, done <-chan struct{}) {
			if done != nil {
				<-done
			}
			c.release(t)
		}(t, done)
	}
}

// release returns a finished ticket's slot and dispatches the next work.
func (c *Controller) release(t *Ticket) {
	c.mu.Lock()
	c.finishLocked(t)
	c.mu.Unlock()
	c.dispatch()
}

// finishLocked books a running ticket's completion and frees its slot.
func (c *Controller) finishLocked(t *Ticket) {
	now := c.clock.Now()
	t.finished = now
	t.state = StateDone
	c.used[t.Level]--
	st := c.stats[t.Level]
	st.completed++
	if now.After(t.deadline) {
		st.deadlineMiss++
	} else {
		st.deadlineHit++
	}
	ms := float64(now.Sub(t.started)) / float64(time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	if c.ewmaExecMs == 0 {
		c.ewmaExecMs = ms
	} else {
		c.ewmaExecMs = 0.8*c.ewmaExecMs + 0.2*ms
	}
}

// Get returns a ticket by ID.
func (c *Controller) Get(id string) (*Ticket, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tickets[id]
	return t, ok
}

// Cancel removes a still-queued ticket from its queue: the query never
// consumes a slot, never reaches the coordinator and is never billed.
// handled is false when the ticket is unknown or already past the queue
// (running, done, shed) — the caller then falls through to the
// coordinator's own cancellation.
func (c *Controller) Cancel(id string) (handled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tickets[id]
	if !ok || t.state != StateQueued {
		return false
	}
	c.queues[t.Level].remove(t)
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	t.state = StateCanceled
	t.finished = c.clock.Now()
	c.stats[t.Level].canceled++
	return true
}

// Snapshot returns the observable controller state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Snapshot
	for _, lev := range billing.Levels() {
		s.TotalSlots += c.caps[lev]
		s.UsedSlots += c.used[lev]
		st := c.stats[lev]
		shed := int64(0)
		reasons := make(map[string]int64, len(st.shedByReason))
		for r, n := range st.shedByReason {
			shed += n
			reasons[r] = n
		}
		s.Tiers = append(s.Tiers, TierSnapshot{
			Level:         lev.String(),
			Slots:         c.caps[lev],
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
