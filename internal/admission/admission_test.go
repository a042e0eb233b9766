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

// closedCh is a pre-closed done channel for starts that complete
// instantly.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// recorder logs the order in which admitted tickets actually started.
type recorder struct {
	mu    sync.Mutex
	order []string
}

// instant returns a StartFunc that records its name and completes
// immediately.
func (r *recorder) instant(name string) admission.StartFunc {
	return func() (any, <-chan struct{}) {
		r.mu.Lock()
		r.order = append(r.order, name)
		r.mu.Unlock()
		return name, closedCh
	}
}

// held returns a StartFunc that records its name and holds its slot
// until the returned channel is closed.
func (r *recorder) held(name string) (admission.StartFunc, chan struct{}) {
	release := make(chan struct{})
	return func() (any, <-chan struct{}) {
		r.mu.Lock()
		r.order = append(r.order, name)
		r.mu.Unlock()
		return name, release
	}, release
}

func (r *recorder) started() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// waitFor polls cond on the real scheduler (controller goroutines run on
// real threads even under a virtual clock).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func onePerTier() map[billing.Level]int {
	return map[billing.Level]int{billing.Immediate: 1, billing.Relaxed: 1, billing.BestEffort: 1}
}

func hourPerTier() map[billing.Level]time.Duration {
	return map[billing.Level]time.Duration{
		billing.Immediate: time.Hour, billing.Relaxed: time.Hour, billing.BestEffort: time.Hour,
	}
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
	c := admission.New(clk, admission.Config{Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier()})
	rec := &recorder{}
	start, release := rec.held("first")

	tk, dec := c.Submit(admission.Request{Level: billing.Immediate, Start: start})
	if dec.State != admission.StateRunning || dec.QueuePosition != 0 {
		t.Fatalf("idle submit: %+v", dec)
	}
	if tk.Handle() != any("first") {
		t.Fatalf("handle = %v", tk.Handle())
	}
	if dec.Deadline != t0.Add(time.Hour) {
		t.Fatalf("deadline = %v", dec.Deadline)
	}

	// Second submission queues behind the held slot.
	tk2, dec2 := c.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("second")})
	if dec2.State != admission.StateQueued || dec2.QueuePosition != 1 || dec2.QueueDepth != 1 {
		t.Fatalf("queued submit: %+v", dec2)
	}

	close(release)
	waitFor(t, "both done", func() bool {
		return tk.State() == admission.StateDone && tk2.State() == admission.StateDone
	})
	s := c.Snapshot()
	if s.UsedSlots != 0 {
		t.Fatalf("slots leaked: %+v", s)
	}
	imm := tier(t, s, billing.Immediate)
	if imm.Admitted != 2 || imm.Completed != 2 {
		t.Fatalf("imm counters: %+v", imm)
	}
}

func TestEDFOrderWithinTier(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier()})
	rec := &recorder{}
	start, release := rec.held("blocker")
	c.Submit(admission.Request{Level: billing.Immediate, Start: start})

	// Queue out of deadline order; EDF must dispatch B (100ms), C (200ms),
	// A (300ms) regardless of arrival order.
	a, decA := c.Submit(admission.Request{Level: billing.Immediate, Deadline: 300 * time.Millisecond, Start: rec.instant("A")})
	b, _ := c.Submit(admission.Request{Level: billing.Immediate, Deadline: 100 * time.Millisecond, Start: rec.instant("B")})
	cc, _ := c.Submit(admission.Request{Level: billing.Immediate, Deadline: 200 * time.Millisecond, Start: rec.instant("C")})
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

	close(release)
	waitFor(t, "EDF drain", func() bool { return len(rec.started()) == 4 })
	got := rec.started()[1:]
	want := []string{"B", "C", "A"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EDF order = %v, want %v", got, want)
		}
	}
}

// TestStrictPriorityAcrossTiers frees slots the only way they free — by
// completing running tickets. Every tier is held at its cap with two
// tickets queued behind it; each round the three running tickets complete
// in the same instant, so one dispatcher finds all three tiers eligible and
// must drain them immediate → relaxed → best-of-effort. The paper's promise
// is checked as a count: with all three queues non-empty, no Relaxed or
// Best-effort ticket starts while an Immediate ticket is queued and under
// its cap.
func TestStrictPriorityAcrossTiers(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier()})
	rec := &recorder{}
	violations := 0 // guarded by rec.mu
	never := make(chan struct{})

	const queued = 2
	levels := billing.Levels()
	tickets := map[billing.Level][]*admission.Ticket{}
	submit := func(lev billing.Level, want admission.State) {
		name := fmt.Sprintf("%s-%d", lev, len(tickets[lev]))
		tk, dec := c.Submit(admission.Request{Level: lev, Start: func() (any, <-chan struct{}) {
			// Tiers[0] is Immediate (billing.Levels() order).
			imm := c.Snapshot().Tiers[0]
			rec.mu.Lock()
			if lev != billing.Immediate && imm.Queued > 0 && imm.Running < imm.Slots {
				violations++
			}
			rec.order = append(rec.order, name)
			rec.mu.Unlock()
			return name, never
		}})
		if dec.State != want {
			t.Fatalf("%s: %+v, want %s", name, dec, want)
		}
		tickets[lev] = append(tickets[lev], tk)
	}
	for _, lev := range levels {
		submit(lev, admission.StateRunning)
	}
	// Queue cheapest first, so the best-of-effort arrivals meet no paying
	// backlog (pressure shedding is not under test).
	for i := len(levels) - 1; i >= 0; i-- {
		for n := 0; n < queued; n++ {
			submit(levels[i], admission.StateQueued)
		}
	}

	var want []string
	for _, lev := range levels {
		want = append(want, lev.String()+"-0")
	}
	for round := 0; round < queued; round++ {
		for _, ts := range c.Snapshot().Tiers {
			if ts.Queued == 0 || ts.Running != ts.Slots {
				t.Fatalf("round %d: tier %+v, want a backlog behind a full tier", round, ts)
			}
		}
		// Cheapest first: the completion order must not matter.
		c.CompleteTogether(tickets[billing.BestEffort][round], tickets[billing.Relaxed][round], tickets[billing.Immediate][round])
		for _, lev := range levels {
			want = append(want, fmt.Sprintf("%s-%d", lev, round+1))
		}
	}
	if got := rec.started(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("strict order = %v, want %v", got, want)
	}
	if violations != 0 {
		t.Fatalf("%d cheaper-tier starts jumped a runnable immediate ticket", violations)
	}
}

// TestBoundedQueuesUnderStorm hammers the controller from many goroutines
// (run under -race in CI) and checks the hard invariants: queues never
// exceed their caps, every shed decision carries a reason and a
// Retry-After, and the books balance afterwards.
func TestBoundedQueuesUnderStorm(t *testing.T) {
	clk := vclock.NewReal()
	caps := map[billing.Level]int{billing.Immediate: 4, billing.Relaxed: 4, billing.BestEffort: 2}
	c := admission.New(clk, admission.Config{
		Slots: onePerTier(), QueueCap: caps, MaxWait: hourPerTier(), Deadline: hourPerTier(),
	})
	rec := &recorder{}
	var releases []chan struct{}
	for _, lev := range []billing.Level{billing.Immediate, billing.Relaxed, billing.BestEffort} {
		start, release := rec.held("hold-" + lev.String())
		c.Submit(admission.Request{Level: lev, Start: start})
		releases = append(releases, release)
	}

	const workers, perWorker = 6, 10
	var wg sync.WaitGroup
	errs := make(chan string, 3*workers*perWorker)
	for _, lev := range []billing.Level{billing.Immediate, billing.Relaxed, billing.BestEffort} {
		lev := lev
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					_, dec := c.Submit(admission.Request{Level: lev, Start: rec.instant("storm")})
					switch dec.State {
					case admission.StateQueued:
						if dec.QueuePosition < 1 || dec.QueuePosition > dec.QueueDepth || dec.QueueDepth > caps[lev] {
							errs <- fmt.Sprintf("%s queued pos %d depth %d cap %d", lev, dec.QueuePosition, dec.QueueDepth, caps[lev])
						}
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
	for _, lev := range []billing.Level{billing.Immediate, billing.Relaxed, billing.BestEffort} {
		ts := tier(t, mid, lev)
		if ts.MaxQueueDepth > caps[lev] {
			t.Errorf("%s queue high-water %d exceeds cap %d", lev, ts.MaxQueueDepth, caps[lev])
		}
		if ts.Queued > caps[lev] {
			t.Errorf("%s queued %d exceeds cap %d", lev, ts.Queued, caps[lev])
		}
		if ts.Running > ts.Slots {
			t.Errorf("%s running %d exceeds slots %d", lev, ts.Running, ts.Slots)
		}
		if got := ts.Admitted + ts.Shed + ts.Canceled + int64(ts.Queued); got != ts.Submitted {
			t.Errorf("%s books don't balance: admitted %d + shed %d + canceled %d + queued %d != submitted %d",
				lev, ts.Admitted, ts.Shed, ts.Canceled, ts.Queued, ts.Submitted)
		}
	}

	for _, r := range releases {
		close(r)
	}
	waitFor(t, "storm drain", func() bool {
		s := c.Snapshot()
		if s.UsedSlots != 0 {
			return false
		}
		for _, ts := range s.Tiers {
			if ts.Queued != 0 {
				return false
			}
		}
		return true
	})
	end := c.Snapshot()
	for _, ts := range end.Tiers {
		if ts.Completed != ts.Admitted {
			t.Errorf("%s admitted %d but completed %d", ts.Level, ts.Admitted, ts.Completed)
		}
	}
}

func TestShedReasons(t *testing.T) {
	clk := vclock.NewVirtual(t0)

	// queue-full: an explicit zero cap sheds on arrival once the slot is
	// taken.
	c := admission.New(clk, admission.Config{
		Slots:    onePerTier(),
		QueueCap: map[billing.Level]int{billing.Immediate: 0},
		MaxWait:  hourPerTier(), Deadline: hourPerTier(),
	})
	rec := &recorder{}
	start, _ := rec.held("blocker")
	c.Submit(admission.Request{Level: billing.Immediate, Start: start})
	tk, dec := c.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("victim")})
	if dec.State != admission.StateShed || dec.ShedReason != admission.ShedQueueFull || dec.RetryAfter <= 0 {
		t.Fatalf("zero-cap shed: %+v", dec)
	}
	if tk.State() != admission.StateShed || tk.ShedReason() != admission.ShedQueueFull {
		t.Fatalf("ticket: %s/%s", tk.State(), tk.ShedReason())
	}

	// priority-pressure: a best-of-effort arrival is turned away when its
	// slots are busy and a paying tier is already waiting.
	c2 := admission.New(clk, admission.Config{Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier()})
	immStart, _ := rec.held("imm")
	beStart, _ := rec.held("be")
	c2.Submit(admission.Request{Level: billing.Immediate, Start: immStart})
	c2.Submit(admission.Request{Level: billing.BestEffort, Start: beStart})
	_, decImm := c2.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("imm-waiting")})
	if decImm.State != admission.StateQueued {
		t.Fatalf("immediate arrival behind a busy slot: %+v", decImm)
	}
	_, dec2 := c2.Submit(admission.Request{Level: billing.BestEffort, Start: rec.instant("be-victim")})
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
	c3 := admission.New(clk, admission.Config{Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier()})
	beStart3, _ := rec.held("be3")
	c3.Submit(admission.Request{Level: billing.BestEffort, Start: beStart3})
	_, dec3 := c3.Submit(admission.Request{Level: billing.BestEffort, Start: rec.instant("be-queued")})
	if dec3.State != admission.StateQueued {
		t.Fatalf("unpressured best-effort: %+v", dec3)
	}
}

func TestQueueTimeoutAndDeadlineShed(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{
		Slots:    onePerTier(),
		MaxWait:  map[billing.Level]time.Duration{billing.Immediate: 500 * time.Millisecond},
		Deadline: map[billing.Level]time.Duration{billing.Immediate: 10 * time.Second},
	})
	rec := &recorder{}
	start, _ := rec.held("blocker")
	c.Submit(admission.Request{Level: billing.Immediate, Start: start})

	a, _ := c.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("A")})
	b, _ := c.Submit(admission.Request{Level: billing.Immediate, Deadline: 200 * time.Millisecond, Start: rec.instant("B")})

	// 250ms in: B's tight completion deadline has passed; A still waits.
	clk.Advance(250 * time.Millisecond)
	if b.State() != admission.StateShed || b.ShedReason() != admission.ShedDeadline {
		t.Fatalf("B = %s/%s", b.State(), b.ShedReason())
	}
	if a.State() != admission.StateQueued {
		t.Fatalf("A = %s", a.State())
	}
	// 550ms in: A exhausted the tier's bounded wait, well before its 10s
	// deadline.
	clk.Advance(300 * time.Millisecond)
	if a.State() != admission.StateShed || a.ShedReason() != admission.ShedQueueTimeout {
		t.Fatalf("A = %s/%s", a.State(), a.ShedReason())
	}
	if a.RetryAfter() <= 0 || b.RetryAfter() <= 0 {
		t.Fatalf("retry hints: A %v, B %v", a.RetryAfter(), b.RetryAfter())
	}
	snap := tier(t, c.Snapshot(), billing.Immediate)
	if snap.ShedByReason[admission.ShedDeadline] != 1 || snap.ShedByReason[admission.ShedQueueTimeout] != 1 {
		t.Fatalf("shed accounting: %+v", snap.ShedByReason)
	}
	if len(rec.started()) != 1 {
		t.Fatalf("shed tickets started: %v", rec.started())
	}
}

func TestCancelQueuedNeverRunsNorBills(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier()})
	rec := &recorder{}
	start, release := rec.held("blocker")
	blocker, _ := c.Submit(admission.Request{Level: billing.Immediate, Start: start})
	victim, _ := c.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("victim")})

	if !c.Cancel(victim.ID) {
		t.Fatalf("cancel of queued ticket refused")
	}
	if victim.State() != admission.StateCanceled {
		t.Fatalf("state = %s", victim.State())
	}
	if c.Cancel(victim.ID) {
		t.Fatalf("double cancel accepted")
	}
	if c.Cancel(blocker.ID) {
		t.Fatalf("cancel of running ticket accepted")
	}
	if c.Cancel("no-such-id") {
		t.Fatalf("cancel of unknown id accepted")
	}

	close(release)
	waitFor(t, "blocker done", func() bool { return blocker.State() == admission.StateDone })
	if got := rec.started(); len(got) != 1 || got[0] != "blocker" {
		t.Fatalf("canceled ticket ran: %v", got)
	}
	imm := tier(t, c.Snapshot(), billing.Immediate)
	if imm.Canceled != 1 || imm.Admitted != 1 || imm.Completed != 1 {
		t.Fatalf("counters: %+v", imm)
	}
}
