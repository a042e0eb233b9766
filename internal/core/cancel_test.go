package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/vmsim"
)

func TestCancelPendingQuery(t *testing.T) {
	r := newRig(t, 1, Config{GracePeriod: 10 * time.Minute}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	r.submit(billing.Immediate, 25_000*mb) // occupy the only slot (~100s)
	q := r.submit(billing.Relaxed, 250*mb)
	if q.Status() != StatusPending {
		t.Fatalf("setup: %s", q.Status())
	}
	if err := r.coord.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if q.Status() != StatusFailed || q.Err() == nil {
		t.Fatalf("canceled query: %s %v", q.Status(), q.Err())
	}
	// The grace timer must not resurrect it on CF.
	r.clk.Advance(20 * time.Minute)
	if q.UsedCF() {
		t.Fatalf("canceled query ran on CF")
	}
	if u := r.cf.Usage(); u.Invocations != 0 {
		t.Fatalf("CF invoked for canceled query")
	}
}

func TestCancelRunningQueryRefused(t *testing.T) {
	r := newRig(t, 1, Config{}, vmsim.Config{SlotsPerVM: 1}, cfsim.Config{})
	q := r.submit(billing.Immediate, 2500*mb)
	if q.Status() != StatusRunning {
		t.Fatalf("setup: %s", q.Status())
	}
	if err := r.coord.Cancel(q.ID); !errors.Is(err, ErrNotPending) {
		t.Fatalf("cancel running = %v", err)
	}
	if err := r.coord.Cancel("nope"); err == nil {
		t.Fatalf("cancel missing query succeeded")
	}
}
