package server_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rover"
	"repro/internal/vmsim"
)

// newSingleFlightServer builds a server with the result cache on, so
// identical in-flight queries share one execution; vms=0 leaves the
// cluster without capacity (submissions stay queued).
func newSingleFlightServer(t *testing.T, vms int) *rover.Client {
	t.Helper()
	ts, _ := newStack(t, stackOpts{
		vms: vms, vm: vmsim.Config{SlotsPerVM: 1, BootDelay: time.Hour}, grace: time.Hour,
		resultBytes: 1 << 20,
	})
	return rover.NewClient(ts.URL)
}

func TestCancelPendingViaAPI(t *testing.T) {
	c := newSingleFlightServer(t, 0) // no capacity: relaxed queues for an hour
	resp, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM orders", "relaxed", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.StatusV1(resp.ID)
	if err != nil || info.Status != "queued" || info.QueuePosition != 1 {
		t.Fatalf("status = %+v, %v", info, err)
	}
	if err := c.CancelV1(resp.ID); err != nil {
		t.Fatal(err)
	}
	info, err = c.StatusV1(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "canceled" || !strings.Contains(info.Error, "canceled") || info.EndTime == "" {
		t.Fatalf("after cancel: %+v", info)
	}
	// Double cancel conflicts.
	if err := c.CancelV1(resp.ID); err == nil {
		t.Fatalf("double cancel succeeded")
	}
	if err := c.CancelV1("q-xxxxx"); err == nil {
		t.Fatalf("cancel of unknown query succeeded")
	}
}

func TestIdenticalSubmissionsGetSameResult(t *testing.T) {
	c := newSingleFlightServer(t, 2) // capacity available: the first runs at once
	// Two formattings of one statement are one result key.
	a, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM lineitem", "immediate", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.SubmitV1("tpch", "select   count(*)   from lineitem", "immediate", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTerminal(a.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	ib, err := c.WaitTerminal(b.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ib.Status != "finished" {
		t.Fatalf("second submission = %+v", ib)
	}
	ra, err := c.ResultV1(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.ResultV1(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Rows) != 1 || len(rb.Rows) != 1 || ra.Rows[0][0] != rb.Rows[0][0] {
		t.Fatalf("results differ: %v vs %v", ra.Rows, rb.Rows)
	}
	// Whether the second waited on the first's execution or arrived after
	// it, it is a cache hit: the bytes were scanned — and billed — once.
	if ra.Cached || ra.BytesScanned <= 0 || ra.ListPrice <= 0 {
		t.Fatalf("first submission was not the billed execution: %+v", ra.ResultPayload)
	}
	if !rb.Cached || !rb.CacheHit || rb.BytesScanned != 0 || rb.ListPrice != 0 {
		t.Fatalf("second submission was not a free hit: %+v", rb.ResultPayload)
	}
	if rb.Origin == nil || rb.Origin.BytesScanned != ra.BytesScanned {
		t.Fatalf("hit origin = %+v, want the execution's %d bytes", rb.Origin, ra.BytesScanned)
	}
}
