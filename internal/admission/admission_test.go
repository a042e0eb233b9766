package admission_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/vclock"
)

var t0 = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// slots is a counting fake for the cluster behind the queues: a number of
// free slots per tier, taken by Place and given back by the test. Tickets
// carry their name as Owner.
type slots struct {
	mu      sync.Mutex
	free    map[billing.Level]int
	order   []string // names, in start order
	shed    []string
	onStart func(lev billing.Level) // optional, called from start
}

func onePerTier() *slots {
	return &slots{free: map[billing.Level]int{billing.Immediate: 1, billing.Relaxed: 1, billing.BestEffort: 1}}
}

func (s *slots) Place(t *admission.Ticket) (func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free[t.Level] == 0 {
		return nil, false
	}
	s.free[t.Level]--
	return func() {
		if s.onStart != nil {
			s.onStart(t.Level)
		}
		s.mu.Lock()
		s.order = append(s.order, t.Owner.(string))
		s.mu.Unlock()
	}, true
}

func (s *slots) Shed(t *admission.Ticket) {
	s.mu.Lock()
	s.shed = append(s.shed, t.Owner.(string))
	s.mu.Unlock()
}

func (s *slots) freeSlots(lev billing.Level) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free[lev]
}

func (s *slots) started() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// finish ends the tickets' executions in the same instant: every slot is
// back before the first completion reaches the controller, so one
// dispatcher finds them all.
func (s *slots) finish(c *admission.Controller, ts ...*admission.Ticket) {
	s.mu.Lock()
	for _, t := range ts {
		s.free[t.Level]++
	}
	s.mu.Unlock()
	for _, t := range ts {
		c.Complete(t)
	}
}

func hourPerTier() map[billing.Level]time.Duration {
	return map[billing.Level]time.Duration{
		billing.Immediate: time.Hour, billing.Relaxed: time.Hour, billing.BestEffort: time.Hour,
	}
}

// patient bounds: default queue caps, nothing times out within a test.
func patient() *admission.Config {
	return &admission.Config{MaxWait: hourPerTier(), Deadline: hourPerTier()}
}

func submit(c *admission.Controller, name string, lev billing.Level, deadline time.Duration) (*admission.Ticket, admission.Decision) {
	return c.Submit(admission.Request{Level: lev, Owner: name, Deadline: deadline})
}

func tier(t *testing.T, s admission.Snapshot, lev billing.Level) admission.TierSnapshot {
	t.Helper()
	for _, ts := range s.Tiers {
		if ts.Level == lev.String() {
			return ts
		}
	}
	t.Fatalf("tier %s missing from snapshot %+v", lev, s)
	return admission.TierSnapshot{}
}

func TestFreeSlotRunsImmediately(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	fake := onePerTier()
	c := admission.NewPlaced(clk, patient(), fake)

	tk, dec := submit(c, "first", billing.Immediate, 0)
	if dec.State != admission.StateRunning || dec.QueuePosition != 0 {
		t.Fatalf("idle submit: %+v", dec)
	}
	if got := fake.started(); len(got) != 1 || got[0] != "first" {
		t.Fatalf("started = %v", got)
	}
	if dec.Deadline != t0.Add(time.Hour) || tk.Deadline() != dec.Deadline {
		t.Fatalf("deadline = %v / %v", dec.Deadline, tk.Deadline())
	}

	// Second submission queues behind the held slot.
	tk2, dec2 := submit(c, "second", billing.Immediate, 0)
	if dec2.State != admission.StateQueued || dec2.QueuePosition != 1 || dec2.QueueDepth != 1 {
		t.Fatalf("queued submit: %+v", dec2)
	}

	fake.finish(c, tk)
	if tk2.State() != admission.StateRunning {
		t.Fatalf("second after the slot freed: %s", tk2.State())
	}
	fake.finish(c, tk2)
	s := c.Snapshot()
	imm := tier(t, s, billing.Immediate)
	if imm.Running != 0 || imm.Admitted != 2 || imm.Completed != 2 || imm.DeadlineHit != 2 {
		t.Fatalf("imm counters: %+v", imm)
	}
}

func TestEDFOrderWithinTier(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	fake := onePerTier()
	c := admission.NewPlaced(clk, patient(), fake)
	blocker, _ := submit(c, "blocker", billing.Immediate, 0)

	// Queue out of deadline order; EDF must dispatch B (100ms), C (200ms),
	// A (300ms) regardless of arrival order.
	a, decA := submit(c, "A", billing.Immediate, 300*time.Millisecond)
	b, _ := submit(c, "B", billing.Immediate, 100*time.Millisecond)
	cc, _ := submit(c, "C", billing.Immediate, 200*time.Millisecond)
	if decA.QueuePosition != 1 || decA.QueueDepth != 1 {
		t.Fatalf("A decision: %+v", decA)
	}
	if pos, depth := b.Position(); pos != 1 || depth != 3 {
		t.Fatalf("B position = %d/%d", pos, depth)
	}
	if pos, _ := cc.Position(); pos != 2 {
		t.Fatalf("C position = %d", pos)
	}
	if pos, _ := a.Position(); pos != 3 {
		t.Fatalf("A position = %d", pos)
	}

	for _, running := range []*admission.Ticket{blocker, b, cc, a} {
		fake.finish(c, running)
	}
	got := fake.started()[1:]
	want := []string{"B", "C", "A"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("EDF order = %v, want %v", got, want)
	}
}

// TestStrictPriorityAcrossTiers frees slots the only way they free — by
// completing running tickets. Every tier is held at its one slot with two
// tickets queued behind it; each round the running tickets complete in the
// same instant, so one dispatcher finds every tier placeable and must drain
// them in priority order. The paper's promise is checked as a count: no
// Relaxed or Best-effort ticket starts while an Immediate ticket is queued
// and placeable. Best-of-effort additionally waits out the whole paying
// backlog, free slot or not.
func TestStrictPriorityAcrossTiers(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	fake := onePerTier()
	c := admission.NewPlaced(clk, patient(), fake)
	violations := 0
	fake.onStart = func(lev billing.Level) {
		// Tiers[0] is Immediate (billing.Levels() order).
		imm := c.Snapshot().Tiers[0]
		if lev != billing.Immediate && imm.Queued > 0 && fake.freeSlots(billing.Immediate) > 0 {
			violations++
		}
	}

	const queued = 2
	levels := billing.Levels()
	tickets := map[billing.Level][]*admission.Ticket{}
	add := func(lev billing.Level, want admission.State) {
		name := fmt.Sprintf("%s-%d", lev, len(tickets[lev]))
		tk, dec := submit(c, name, lev, 0)
		if dec.State != want {
			t.Fatalf("%s: %+v, want %s", name, dec, want)
		}
		tickets[lev] = append(tickets[lev], tk)
	}
	for _, lev := range levels {
		add(lev, admission.StateRunning)
	}
	// Queue cheapest first, so the best-of-effort arrivals meet no paying
	// backlog (pressure shedding is not under test).
	for i := len(levels) - 1; i >= 0; i-- {
		for n := 0; n < queued; n++ {
			add(levels[i], admission.StateQueued)
		}
	}

	imm, rx, be := tickets[billing.Immediate], tickets[billing.Relaxed], tickets[billing.BestEffort]
	// Cheapest first: the completion order must not matter.
	fake.finish(c, be[0], rx[0], imm[0])
	fake.finish(c, rx[1], imm[1])
	fake.finish(c, be[1])
	want := []string{
		"immediate-0", "relaxed-0", "best-of-effort-0",
		// Round one: both paying tiers still have a backlog afterwards, so
		// best-of-effort's free slot stays empty.
		"immediate-1", "relaxed-1",
		// Round two drains the paying backlog; only then does the cheap tier
		// take the slot it has had free since round one.
		"immediate-2", "relaxed-2", "best-of-effort-1",
		"best-of-effort-2",
	}
	if got := fake.started(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("strict order = %v, want %v", got, want)
	}
	if violations != 0 {
		t.Fatalf("%d cheaper-tier starts jumped a placeable immediate ticket", violations)
	}
}

// TestBoundedQueuesUnderStorm hammers the controller from many goroutines
// (run under -race in CI) and checks the hard invariants: queues never
// exceed their caps, every shed decision carries a reason and a
// Retry-After, and the books balance afterwards.
func TestBoundedQueuesUnderStorm(t *testing.T) {
	caps := map[billing.Level]int{billing.Immediate: 4, billing.Relaxed: 4, billing.BestEffort: 2}
	fake := onePerTier()
	c := admission.NewPlaced(vclock.NewReal(), &admission.Config{
		QueueCap: caps, MaxWait: hourPerTier(), Deadline: hourPerTier(),
	}, fake)
	var holds []*admission.Ticket
	for _, lev := range billing.Levels() {
		tk, _ := submit(c, "hold-"+lev.String(), lev, 0)
		holds = append(holds, tk)
	}

	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	var qmu sync.Mutex
	var queued []*admission.Ticket
	errs := make(chan string, 3*workers*perWorker)
	for _, lev := range billing.Levels() {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					tk, dec := submit(c, "storm", lev, 0)
					switch dec.State {
					case admission.StateQueued:
						if dec.QueuePosition < 1 || dec.QueuePosition > dec.QueueDepth || dec.QueueDepth > caps[lev] {
							errs <- fmt.Sprintf("%s queued pos %d depth %d cap %d", lev, dec.QueuePosition, dec.QueueDepth, caps[lev])
						}
						qmu.Lock()
						queued = append(queued, tk)
						qmu.Unlock()
					case admission.StateShed:
						if dec.ShedReason != admission.ShedQueueFull && dec.ShedReason != admission.ShedPressure {
							errs <- fmt.Sprintf("%s shed reason %q", lev, dec.ShedReason)
						}
						if dec.RetryAfter <= 0 {
							errs <- fmt.Sprintf("%s shed without Retry-After", lev)
						}
					default:
						errs <- fmt.Sprintf("%s unexpected state %s", lev, dec.State)
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	mid := c.Snapshot()
	for _, lev := range billing.Levels() {
		ts := tier(t, mid, lev)
		if ts.MaxQueueDepth > caps[lev] {
			t.Errorf("%s queue high-water %d exceeds cap %d", lev, ts.MaxQueueDepth, caps[lev])
		}
		if ts.Queued > caps[lev] {
			t.Errorf("%s queued %d exceeds cap %d", lev, ts.Queued, caps[lev])
		}
		if ts.Running != 1 {
			t.Errorf("%s running %d on one slot", lev, ts.Running)
		}
		if got := ts.Admitted + ts.Shed + ts.Canceled + int64(ts.Queued); got != ts.Submitted {
			t.Errorf("%s books don't balance: admitted %d + shed %d + canceled %d + queued %d != submitted %d",
				lev, ts.Admitted, ts.Shed, ts.Canceled, ts.Queued, ts.Submitted)
		}
	}
	if len(fake.shed) == 0 {
		t.Error("the storm shed nothing")
	}

	// Drain: finishing whatever runs starts the next, until nothing is left.
	running := holds
	for len(running) > 0 {
		fake.finish(c, running...)
		running = running[:0]
		for _, tk := range queued {
			if tk.State() == admission.StateRunning {
				running = append(running, tk)
			}
		}
		left := queued[:0]
		for _, tk := range queued {
			if tk.State() == admission.StateQueued {
				left = append(left, tk)
			}
		}
		queued = left
	}
	for _, ts := range c.Snapshot().Tiers {
		if ts.Queued != 0 || ts.Running != 0 || ts.Completed != ts.Admitted {
			t.Errorf("after the drain: %+v", ts)
		}
	}
}

func TestShedReasons(t *testing.T) {
	clk := vclock.NewVirtual(t0)

	// queue-full: an explicit zero cap sheds on arrival once the slot is
	// taken.
	fake := onePerTier()
	c := admission.NewPlaced(clk, &admission.Config{
		QueueCap: map[billing.Level]int{billing.Immediate: 0},
		MaxWait:  hourPerTier(), Deadline: hourPerTier(),
	}, fake)
	submit(c, "blocker", billing.Immediate, 0)
	tk, dec := submit(c, "victim", billing.Immediate, 0)
	if dec.State != admission.StateShed || dec.ShedReason != admission.ShedQueueFull || dec.RetryAfter <= 0 {
		t.Fatalf("zero-cap shed: %+v", dec)
	}
	if reason, retry := tk.Shed(); tk.State() != admission.StateShed || reason != admission.ShedQueueFull || retry != dec.RetryAfter {
		t.Fatalf("ticket: %s/%s/%v", tk.State(), reason, retry)
	}
	if fmt.Sprint(fake.shed) != "[victim]" {
		t.Fatalf("owner told of sheds %v", fake.shed)
	}

	// priority-pressure: a best-of-effort arrival is turned away when it
	// cannot start and a paying tier is already waiting.
	fake2 := onePerTier()
	c2 := admission.NewPlaced(clk, patient(), fake2)
	submit(c2, "imm", billing.Immediate, 0)
	submit(c2, "be", billing.BestEffort, 0)
	if _, decImm := submit(c2, "imm-waiting", billing.Immediate, 0); decImm.State != admission.StateQueued {
		t.Fatalf("immediate arrival behind a busy slot: %+v", decImm)
	}
	_, dec2 := submit(c2, "be-victim", billing.BestEffort, 0)
	if dec2.State != admission.StateShed || dec2.ShedReason != admission.ShedPressure || dec2.RetryAfter <= 0 {
		t.Fatalf("pressure shed: %+v", dec2)
	}
	// Cheap tier first: the best-of-effort arrival was shed with its own
	// queue empty, while no immediate submission has been shed.
	snap := c2.Snapshot()
	if be, imm := tier(t, snap, billing.BestEffort), tier(t, snap, billing.Immediate); be.Shed != 1 || be.Queued != 0 || imm.Shed != 0 || imm.Queued != 1 {
		t.Fatalf("after pressure shed: best-effort %+v, immediate %+v", be, imm)
	}
	// Without paying-tier backlog the same arrival queues instead.
	c3 := admission.NewPlaced(clk, patient(), onePerTier())
	submit(c3, "be3", billing.BestEffort, 0)
	if _, dec3 := submit(c3, "be-queued", billing.BestEffort, 0); dec3.State != admission.StateQueued {
		t.Fatalf("unpressured best-effort: %+v", dec3)
	}
	// And without bounds it queues behind the backlog: nothing is shed.
	c4 := admission.NewPlaced(clk, nil, onePerTier())
	submit(c4, "imm", billing.Immediate, 0)
	submit(c4, "imm-waiting", billing.Immediate, 0)
	if _, dec4 := submit(c4, "be-patient", billing.BestEffort, 0); dec4.State != admission.StateQueued || !dec4.Deadline.IsZero() {
		t.Fatalf("unbounded best-effort behind a paying backlog: %+v", dec4)
	}
}

func TestQueueTimeoutAndDeadlineShed(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	fake := onePerTier()
	c := admission.NewPlaced(clk, &admission.Config{
		MaxWait:  map[billing.Level]time.Duration{billing.Immediate: 500 * time.Millisecond},
		Deadline: map[billing.Level]time.Duration{billing.Immediate: 10 * time.Second},
	}, fake)
	submit(c, "blocker", billing.Immediate, 0)

	a, _ := submit(c, "A", billing.Immediate, 0)
	b, _ := submit(c, "B", billing.Immediate, 200*time.Millisecond)
	// L's own bounded wait (the way a Relaxed query carries its grace
	// period) ends with a slot free: the last call places it.
	l, _ := c.Submit(admission.Request{Level: billing.Immediate, Owner: "L", Wait: 700 * time.Millisecond})

	// 250ms in: B's tight completion deadline has passed; A still waits.
	clk.Advance(250 * time.Millisecond)
	if reason, _ := b.Shed(); b.State() != admission.StateShed || reason != admission.ShedDeadline {
		t.Fatalf("B = %s/%s", b.State(), reason)
	}
	if a.State() != admission.StateQueued {
		t.Fatalf("A = %s", a.State())
	}
	// 550ms in: A exhausted the tier's bounded wait, well before its 10s
	// deadline, and the placer still has nothing for it.
	clk.Advance(300 * time.Millisecond)
	reasonA, retryA := a.Shed()
	if a.State() != admission.StateShed || reasonA != admission.ShedQueueTimeout {
		t.Fatalf("A = %s/%s", a.State(), reasonA)
	}
	if _, retryB := b.Shed(); retryA <= 0 || retryB <= 0 {
		t.Fatalf("retry hints: A %v, B %v", retryA, retryB)
	}
	// 700ms in: a slot the controller was never told about is free when
	// L's wait runs out.
	fake.mu.Lock()
	fake.free[billing.Immediate]++
	fake.mu.Unlock()
	clk.Advance(150 * time.Millisecond)
	if l.State() != admission.StateRunning {
		t.Fatalf("L = %s, want started by its timer's last call", l.State())
	}
	snap := tier(t, c.Snapshot(), billing.Immediate)
	if snap.ShedByReason[admission.ShedDeadline] != 1 || snap.ShedByReason[admission.ShedQueueTimeout] != 1 {
		t.Fatalf("shed accounting: %+v", snap.ShedByReason)
	}
	if got := fmt.Sprint(fake.started()); got != "[blocker L]" {
		t.Fatalf("started = %s", got)
	}
	if got := fmt.Sprint(fake.shed); got != "[B A]" {
		t.Fatalf("owner told of sheds %s", got)
	}
}

func TestCancelQueuedNeverRunsNorBills(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	fake := onePerTier()
	c := admission.NewPlaced(clk, patient(), fake)
	blocker, _ := submit(c, "blocker", billing.Immediate, 0)
	victim, _ := submit(c, "victim", billing.Immediate, 0)

	if !c.Cancel(victim) {
		t.Fatalf("cancel of queued ticket refused")
	}
	if victim.State() != admission.StateCanceled {
		t.Fatalf("state = %s", victim.State())
	}
	if c.Cancel(victim) {
		t.Fatalf("double cancel accepted")
	}
	if c.Cancel(blocker) {
		t.Fatalf("cancel of running ticket accepted")
	}
	if clk.Pending() != 0 {
		t.Fatalf("%d timers outlive the canceled ticket", clk.Pending())
	}

	fake.finish(c, blocker)
	if got := fake.started(); len(got) != 1 || got[0] != "blocker" {
		t.Fatalf("canceled ticket ran: %v", got)
	}
	imm := tier(t, c.Snapshot(), billing.Immediate)
	if imm.Canceled != 1 || imm.Admitted != 1 || imm.Completed != 1 {
		t.Fatalf("counters: %+v", imm)
	}
}

// TestStandaloneStartsAtOnce: a controller built with New has nothing to
// place on, so every submission starts through its Request.Start, and the
// done channel that returns is honoured — closed or nil completes at once,
// open completes when it closes.
func TestStandaloneStartsAtOnce(t *testing.T) {
	c := admission.New(vclock.NewReal(), admission.Config{})
	closed := make(chan struct{})
	close(closed)
	open := make(chan struct{})
	starts := 0
	for _, done := range []chan struct{}{closed, nil, open} {
		var ch <-chan struct{}
		if done != nil {
			ch = done
		}
		_, dec := c.Submit(admission.Request{Level: billing.Immediate, Start: func() (any, <-chan struct{}) {
			starts++
			return nil, ch
		}})
		if dec.State != admission.StateRunning || dec.Deadline.IsZero() {
			t.Fatalf("standalone submit: %+v", dec)
		}
	}
	imm := tier(t, c.Snapshot(), billing.Immediate)
	if starts != 3 || imm.Admitted != 3 || imm.Completed != 2 || imm.Running != 1 {
		t.Fatalf("starts %d, counters %+v; want 3 started, the open one still running", starts, imm)
	}
	close(open)
	deadline := time.Now().Add(10 * time.Second)
	for tier(t, c.Snapshot(), billing.Immediate).Completed != 3 {
		if time.Now().After(deadline) {
			t.Fatal("the open execution's completion was never booked")
		}
		time.Sleep(time.Millisecond)
	}
}
