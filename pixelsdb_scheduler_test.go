package pixelsdb

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/rover"
)

// outcome is what the scheduler did with one arrival.
type outcome struct {
	status     string
	usedCF     bool
	shedReason string
}

// TestOneSchedulerRESTEqualsEmbedded plays one arrival script twice — through
// DB.Submit and through POST /v1/query — against identically configured
// instances and requires the same (status, usedCF, shed reason) for every
// arrival: both surfaces take Coordinator.Submit, so both are queued,
// placed, shed and canceled by the same rules. Every VM lease is held for
// the first half of the script, so the outcomes do not depend on how long
// anything takes to execute.
func TestOneSchedulerRESTEqualsEmbedded(t *testing.T) {
	script := []Level{Immediate, Relaxed, Relaxed, Relaxed, BestEffort, Immediate}
	const cancel = 2 // the second Relaxed arrival is canceled while queued
	want := []outcome{
		{"finished", true, ""},  // Immediate: no VM slot, CF has headroom
		{"finished", false, ""}, // Relaxed: waits within its grace, takes the slot that frees
		{"canceled", false, ""},
		{"shed", false, admission.ShedQueueFull},
		{"shed", false, admission.ShedPressure}, // Best-of-effort behind a Relaxed backlog
		{"finished", true, ""},
	}

	open := func(t *testing.T) (*DB, func()) {
		t.Helper()
		hour := map[Level]time.Duration{Immediate: time.Hour, Relaxed: time.Hour, BestEffort: time.Hour}
		db, err := Open(Options{
			InitialVMs:  1,
			GracePeriod: time.Hour,
			Admission:   &admission.Config{QueueCap: map[Level]int{Relaxed: 2}, MaxWait: hour, Deadline: hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.LoadSampleData("tpch", 0.002); err != nil {
			t.Fatal(err)
		}
		var release []func()
		for {
			lease, ok := db.Cluster().TryAcquire()
			if !ok {
				break
			}
			release = append(release, lease.Release)
		}
		return db, func() {
			for _, r := range release {
				r()
			}
		}
	}
	const stmt = "SELECT COUNT(*) FROM orders"

	embedded := func(t *testing.T) []outcome {
		db, releaseVMs := open(t)
		var qs []*Query
		for _, level := range script {
			q, err := db.Submit("tpch", stmt, level)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		if err := db.Cancel(qs[cancel].ID); err != nil {
			t.Fatal(err)
		}
		if err := db.Cancel(qs[cancel].ID); !errors.Is(err, core.ErrNotQueued) {
			t.Fatalf("second cancel = %v", err)
		}
		releaseVMs()
		var got []outcome
		for _, q := range qs {
			select {
			case <-q.Done():
			case <-time.After(30 * time.Second):
				t.Fatalf("%s (%s) still %s", q.ID, q.Level, q.Status())
			}
			reason, retryAfter := q.Shed()
			if q.Status() == core.StatusShed && (retryAfter <= 0 || q.Err() == nil || !strings.Contains(q.Err().Error(), reason)) {
				t.Fatalf("%s shed (%s): retry after %v, err %v", q.ID, reason, retryAfter, q.Err())
			}
			got = append(got, outcome{string(q.Status()), q.UsedCF(), reason})
		}
		// Shed and canceled queries executed nothing and were billed nothing.
		if n := db.Ledger().Len(); n != 3 {
			t.Fatalf("ledger holds %d rows, want the 3 executed queries'", n)
		}
		return got
	}

	rest := func(t *testing.T) []outcome {
		db, releaseVMs := open(t)
		ts := httptest.NewServer(db.Handler("tpch", ""))
		t.Cleanup(ts.Close)
		c := rover.NewClient(ts.URL)
		var ids []string
		for i, level := range script {
			resp, err := c.SubmitV1("tpch", stmt, level.String(), 0, 0)
			if shed, ok := rover.IsShed(err); ok {
				ids = append(ids, shed.QueryID)
				continue
			}
			if err != nil {
				t.Fatalf("arrival %d: %v", i, err)
			}
			ids = append(ids, resp.ID)
		}
		if err := c.CancelV1(ids[cancel]); err != nil {
			t.Fatal(err)
		}
		var ae *rover.APIError
		if err := c.CancelV1(ids[cancel]); !errors.As(err, &ae) || ae.Status != 409 {
			t.Fatalf("second cancel = %v", err)
		}
		releaseVMs()
		var got []outcome
		for _, id := range ids {
			info, err := c.WaitTerminal(id, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, outcome{info.Status, info.UsedCF, info.ShedReason})
		}
		if n := db.Ledger().Len(); n != 3 {
			t.Fatalf("ledger holds %d rows, want the 3 executed queries'", n)
		}
		return got
	}

	for name, run := range map[string]func(*testing.T) []outcome{"embedded": embedded, "rest": rest} {
		t.Run(name, func(t *testing.T) {
			if got := run(t); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("outcomes = %v\nwant       %v", got, want)
			}
		})
	}
}
