package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/vmsim"
)

// TestCancelPendingQuery: one cancel, one outcome, whatever the tier and
// with or without bounds — canceled, no ledger row, queue entry and timer
// gone, never resurrected on CF by the grace timer.
func TestCancelPendingQuery(t *testing.T) {
	for _, bounds := range []*admission.Config{nil, {}} {
		for _, level := range []billing.Level{billing.Relaxed, billing.BestEffort} {
			r := newRig(t, 1, Config{GracePeriod: 10 * time.Minute, Admission: bounds}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
			r.submit(billing.Immediate, 25_000*mb) // occupy the only slot (~100s)
			q := r.submit(level, 250*mb)
			if q.Status() != StatusQueued {
				t.Fatalf("setup: %s", q.Status())
			}
			if err := r.coord.Cancel(q.ID); err != nil {
				t.Fatal(err)
			}
			if q.Status() != StatusCanceled || q.Err() == nil {
				t.Fatalf("canceled query: %s %v", q.Status(), q.Err())
			}
			select {
			case <-q.Done():
			default:
				t.Fatalf("canceled query's Done is open")
			}
			if pos, depth := q.QueuePosition(); pos != 0 || depth != 0 {
				t.Fatalf("canceled query still queued at %d of %d", pos, depth)
			}
			if err := r.coord.Cancel(q.ID); !errors.Is(err, ErrNotQueued) {
				t.Fatalf("second cancel = %v", err)
			}
			// Neither the grace timer nor a freed slot may resurrect it.
			r.clk.Advance(20 * time.Minute)
			if q.Status() != StatusCanceled || q.UsedCF() {
				t.Fatalf("canceled query ran: %s usedCF=%v", q.Status(), q.UsedCF())
			}
			if u := r.cf.Usage(); u.Invocations != 0 {
				t.Fatalf("CF invoked for canceled query")
			}
			if bills := r.ledger.All(); len(bills) != 1 || bills[0].QueryID == q.ID {
				t.Fatalf("ledger = %+v, want the blocker's row only", bills)
			}
		}
	}
}

func TestCancelRunningQueryRefused(t *testing.T) {
	r := newRig(t, 1, Config{}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	q := r.submit(billing.Immediate, 2500*mb)
	if q.Status() != StatusRunning {
		t.Fatalf("setup: %s", q.Status())
	}
	if err := r.coord.Cancel(q.ID); !errors.Is(err, ErrNotQueued) {
		t.Fatalf("cancel running = %v", err)
	}
	if err := r.coord.Cancel("nope"); err == nil {
		t.Fatalf("cancel missing query succeeded")
	}
}
