package core

import (
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/vmsim"
)

// The tests below run the scheduler every served query runs — the
// server-default bounds (Admission: &admission.Config{}) over the virtual
// clock and the modeled executor — through the three situations the
// two-layer design got wrong.

// holdVMs takes every VM slot behind the scheduler's back, the way the
// perf harness's cf_spill workload does.
func (r *testRig) holdVMs(t *testing.T) []*vmsim.Lease {
	t.Helper()
	var leases []*vmsim.Lease
	for {
		l, ok := r.cluster.TryAcquire()
		if !ok {
			break
		}
		leases = append(leases, l)
	}
	if len(leases) == 0 {
		t.Fatal("no VM slot to hold")
	}
	return leases
}

func (r *testRig) shedCount(level billing.Level) int64 {
	for _, ts := range r.coord.Admission().Tiers {
		if ts.Level == level.String() {
			return ts.Shed
		}
	}
	return -1
}

// TestRelaxedBacklogReachesCFAtGrace: with every VM slot held, Relaxed
// arrivals all queue — however many there are, none occupies a "slot" while
// waiting and none is shed — and each starts on CF at exactly arrival +
// grace, which is also what the ledger reports. A slot freed earlier goes
// to the earliest deadline.
func TestRelaxedBacklogReachesCFAtGrace(t *testing.T) {
	r := newRig(t, 1, Config{Admission: &admission.Config{}}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{})
	grace := r.coord.Config().GracePeriod
	leases := r.holdVMs(t)

	var qs []*Query
	for i := 0; i < 6; i++ {
		qs = append(qs, r.submit(billing.Relaxed, 250*mb))
		r.clk.Advance(time.Second)
	}
	for i, q := range qs {
		if pos, depth := q.QueuePosition(); q.Status() != StatusQueued || pos != i+1 || depth != 6 {
			t.Fatalf("arrival %d: %s at %d of %d, want queued at %d of 6", i, q.Status(), pos, depth, i+1)
		}
	}
	r.clk.Advance(grace - 6*time.Second - time.Millisecond)
	if qs[0].Status() != StatusQueued {
		t.Fatalf("first arrival left the queue before its grace ran out: %s", qs[0].Status())
	}
	r.clk.Advance(time.Hour)
	for i, q := range qs {
		sub, start, _ := q.Times()
		if q.Status() != StatusFinished || !q.UsedCF() || start.Sub(sub) != grace {
			t.Fatalf("arrival %d: %s usedCF=%v pending=%v, want finished on CF after exactly %v",
				i, q.Status(), q.UsedCF(), start.Sub(sub), grace)
		}
		if b := r.bill(t, q); b.PendingTime() != grace {
			t.Fatalf("arrival %d: ledger pending %v, want %v", i, b.PendingTime(), grace)
		}
	}
	if n := r.shedCount(billing.Relaxed); n != 0 {
		t.Fatalf("%d relaxed queries shed", n)
	}

	// A slot that frees within the grace period takes the earliest
	// deadline, on the VM.
	var later []*Query
	for i := 0; i < 3; i++ {
		later = append(later, r.submit(billing.Relaxed, 250*mb))
		r.clk.Advance(time.Second)
	}
	leases[0].Release()
	if later[0].Status() != StatusRunning || later[0].UsedCF() {
		t.Fatalf("earliest deadline after a slot freed: %s usedCF=%v", later[0].Status(), later[0].UsedCF())
	}
	if later[1].Status() != StatusQueued || later[2].Status() != StatusQueued {
		t.Fatalf("later deadlines jumped the queue: %s %s", later[1].Status(), later[2].Status())
	}
}

// TestImmediateSpillsToCFWhileItHasHeadroom: "Immediate spills to CF when
// VMs are full" is bounded by the CF tier's own ceiling and by nothing
// else.
func TestImmediateSpillsToCFWhileItHasHeadroom(t *testing.T) {
	r := newRig(t, 1, Config{Admission: &admission.Config{}}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{})
	r.holdVMs(t)
	var qs []*Query
	for i := 0; i < 16; i++ {
		qs = append(qs, r.submit(billing.Immediate, 250*mb))
	}
	for i, q := range qs {
		if q.Status() != StatusRunning || !q.UsedCF() {
			t.Fatalf("arrival %d: %s usedCF=%v, want running on CF at submit", i, q.Status(), q.UsedCF())
		}
	}
	r.clk.Advance(time.Hour)
	for i, q := range qs {
		if b := r.bill(t, q); b.Status != "finished" || b.PendingTime() != 0 {
			t.Fatalf("arrival %d: %s after %v pending, want finished with none", i, b.Status, b.PendingTime())
		}
	}

	// A CF tier with room for one job: the second Immediate has neither a
	// VM slot nor CF headroom, queues under its bounded wait and is shed.
	r = newRig(t, 1, Config{Admission: &admission.Config{}}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{MaxConcurrency: 8})
	r.holdVMs(t)
	first := r.submit(billing.Immediate, 25_000*mb) // ~10s across 8 workers
	second := r.submit(billing.Immediate, 250*mb)
	if first.Status() != StatusRunning || !first.UsedCF() || second.Status() != StatusQueued {
		t.Fatalf("first %s (usedCF=%v), second %s; want running on CF, queued", first.Status(), first.UsedCF(), second.Status())
	}
	r.clk.Advance(2*time.Second - time.Millisecond)
	if second.Status() != StatusQueued {
		t.Fatalf("second left the queue before immediate's max-wait: %s", second.Status())
	}
	r.clk.Advance(time.Millisecond)
	reason, retryAfter := second.Shed()
	if second.Status() != StatusShed || reason != admission.ShedQueueTimeout || retryAfter <= 0 || second.Err() == nil {
		t.Fatalf("second: %s (%s, retry after %v, err %v), want shed queue-timeout with a retry hint",
			second.Status(), reason, retryAfter, second.Err())
	}
	select {
	case <-second.Done():
	default:
		t.Fatal("shed query's Done is open")
	}
	r.clk.Advance(time.Hour)
	if n := r.ledger.Len(); n != 1 {
		t.Fatalf("ledger holds %d rows, want only the executed query's", n)
	}
}

// TestBestEffortBehindRelaxedBacklog: the cheap tier sheds first under
// bounds; the paper's scheduler (a zero Config) has no bounds and the
// query simply waits — and still never runs ahead of the Relaxed backlog.
func TestBestEffortBehindRelaxedBacklog(t *testing.T) {
	r := newRig(t, 1, Config{Admission: &admission.Config{}}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{})
	r.holdVMs(t)
	r.submit(billing.Relaxed, 250*mb)
	be := r.submit(billing.BestEffort, 250*mb)
	if reason, _ := be.Shed(); be.Status() != StatusShed || reason != admission.ShedPressure {
		t.Fatalf("bounded: best-effort is %s (%s), want shed priority-pressure", be.Status(), reason)
	}

	r = newRig(t, 1, Config{}, vmsim.Config{SlotsPerVM: 2}, cfsim.Config{})
	leases := r.holdVMs(t)
	rx := r.submit(billing.Relaxed, 250*mb)
	be = r.submit(billing.BestEffort, 250*mb)
	if be.Status() != StatusQueued {
		t.Fatalf("unbounded: best-effort is %s, want queued", be.Status())
	}
	r.clk.Advance(time.Hour) // far past every bound the defaults would apply
	if be.Status() != StatusQueued || rx.Status() != StatusFinished || !rx.UsedCF() {
		t.Fatalf("unbounded, an hour on: best-effort %s, relaxed %s usedCF=%v", be.Status(), rx.Status(), rx.UsedCF())
	}
	leases[0].Release()
	if be.Status() != StatusRunning || be.UsedCF() {
		t.Fatalf("best-effort after a slot freed: %s usedCF=%v", be.Status(), be.UsedCF())
	}
}
