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

func TestStrictPriorityAcrossTiers(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{
		Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier(),
		Priority: admission.PriorityStrict,
	})
	rec := &recorder{}
	// Hold every tier's single slot, then queue two per tier in reverse
	// priority order.
	var releases []chan struct{}
	for _, lev := range []billing.Level{billing.Immediate, billing.Relaxed, billing.BestEffort} {
		start, release := rec.held("hold-" + lev.String())
		c.Submit(admission.Request{Level: lev, Start: start})
		releases = append(releases, release)
	}
	never := make(chan struct{})
	hold := func(name string) admission.StartFunc {
		return func() (any, <-chan struct{}) {
			rec.mu.Lock()
			rec.order = append(rec.order, name)
			rec.mu.Unlock()
			return name, never
		}
	}
	for _, sub := range []struct {
		lev  billing.Level
		name string
	}{
		{billing.BestEffort, "be-1"}, {billing.BestEffort, "be-2"},
		{billing.Relaxed, "rel-1"}, {billing.Relaxed, "rel-2"},
		{billing.Immediate, "imm-1"}, {billing.Immediate, "imm-2"},
	} {
		_, dec := c.Submit(admission.Request{Level: sub.lev, Start: hold(sub.name)})
		if dec.State != admission.StateQueued {
			t.Fatalf("%s not queued: %+v", sub.name, dec)
		}
	}

	// Grow the pool so every tier can run its queue (starts hold their
	// slots, so the dispatch loop is the only dispatcher and the recorded
	// order is exactly the discipline's pick order).
	c.Pool().Launch(6)
	waitFor(t, "priority drain", func() bool { return len(rec.started()) == 9 })
	got := rec.started()[3:]
	want := []string{"imm-1", "imm-2", "rel-1", "rel-2", "be-1", "be-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("strict order = %v, want %v", got, want)
		}
	}
	for _, r := range releases {
		close(r)
	}
}

func TestWeightedPriorityInterleaves(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{
		Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier(),
		Priority: admission.PriorityWeighted,
		Weights:  map[billing.Level]int{billing.Immediate: 2, billing.Relaxed: 1, billing.BestEffort: 1},
	})
	rec := &recorder{}
	for _, lev := range []billing.Level{billing.Immediate, billing.Relaxed, billing.BestEffort} {
		start, _ := rec.held("hold-" + lev.String())
		c.Submit(admission.Request{Level: lev, Start: start})
	}
	never := make(chan struct{})
	hold := func(name string) admission.StartFunc {
		return func() (any, <-chan struct{}) {
			rec.mu.Lock()
			rec.order = append(rec.order, name)
			rec.mu.Unlock()
			return name, never
		}
	}
	// Reverse priority order, so the best-of-effort arrivals queue before
	// any paying tier has a backlog (pressure shedding is not under test).
	for _, lev := range []billing.Level{billing.BestEffort, billing.Relaxed, billing.Immediate} {
		for i := 1; i <= 2; i++ {
			c.Submit(admission.Request{Level: lev, Start: hold(fmt.Sprintf("%s-%d", lev, i))})
		}
	}
	c.Pool().Launch(6)
	waitFor(t, "weighted drain", func() bool { return len(rec.started()) == 9 })
	// Smooth WRR with weights 2:1:1 interleaves instead of draining
	// immediate first: every tier appears within the first three picks.
	first3 := rec.started()[3:6]
	seen := map[string]bool{}
	for _, name := range first3 {
		seen[name[:3]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("weighted first picks %v cover %d tiers, want 3", first3, len(seen))
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

func TestSlotPoolAutoscaleSeam(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{
		Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier(),
		SlotBootDelay: time.Second,
	})
	pool := c.Pool()
	if running, booting := pool.Size(); running != 3 || booting != 0 {
		t.Fatalf("initial size = %d/%d", running, booting)
	}

	rec := &recorder{}
	start, release := rec.held("blocker")
	blocker, _ := c.Submit(admission.Request{Level: billing.Immediate, Start: start})
	c.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("q1")})
	c.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("q2")})

	// Launch is not usable capacity until the boot delay elapses.
	pool.Launch(2)
	if running, booting := pool.Size(); running != 3 || booting != 2 {
		t.Fatalf("mid-boot size = %d/%d", running, booting)
	}
	if len(rec.started()) != 1 {
		t.Fatalf("queued work started before boot: %v", rec.started())
	}
	clk.Advance(time.Second)
	if running, booting := pool.Size(); running != 5 || booting != 0 {
		t.Fatalf("post-boot size = %d/%d", running, booting)
	}
	// Proportional redistribution: 5 slots over 1:1:1 baselines rounds the
	// expensive tiers up first (2/2/1), which frees the queued immediates.
	waitFor(t, "boot dispatch", func() bool { return len(rec.started()) == 3 })
	s := c.Snapshot()
	if a, b, cc := tier(t, s, billing.Immediate).Slots, tier(t, s, billing.Relaxed).Slots, tier(t, s, billing.BestEffort).Slots; a != 2 || b != 2 || cc != 1 {
		t.Fatalf("caps after scale-out = %d/%d/%d", a, b, cc)
	}

	// Terminate never revokes the busy slot.
	if removed := pool.Terminate(10); removed != 4 {
		t.Fatalf("terminate removed %d, want 4 (one slot busy)", removed)
	}
	if running, _ := pool.Size(); running != 1 {
		t.Fatalf("post-terminate size = %d", running)
	}
	close(release)
	waitFor(t, "blocker done", func() bool { return blocker.State() == admission.StateDone })
	if removed := pool.Terminate(5); removed != 1 {
		t.Fatalf("idle terminate removed %d, want 1", removed)
	}
}

func TestAutoscaleMetricsCountPayingTiersOnly(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	c := admission.New(clk, admission.Config{Slots: onePerTier(), MaxWait: hourPerTier(), Deadline: hourPerTier()})
	rec := &recorder{}
	immStart, _ := rec.held("imm")
	beStart, _ := rec.held("be")
	c.Submit(admission.Request{Level: billing.Immediate, Start: immStart})
	c.Submit(admission.Request{Level: billing.BestEffort, Start: beStart})
	c.Submit(admission.Request{Level: billing.Immediate, Start: rec.instant("imm-q")})
	c.Submit(admission.Request{Level: billing.BestEffort, Start: rec.instant("be-q")})

	m := c.AutoscaleMetrics()
	if m.TotalSlots != 3 || m.BusySlots != 1 || m.QueuedDemand != 1 {
		t.Fatalf("metrics = %+v (want busy=1 queued=1: best-of-effort is invisible to scale-out)", m)
	}
	if m.Utilization < 0.6 || m.Utilization > 0.7 {
		t.Fatalf("utilization = %f, want 2/3", m.Utilization)
	}
}
