package server_test

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rover"
	"repro/internal/vclock"
	"repro/internal/vmsim"
)

// switchInvoker runs CF attempts in-process, or fails every one of them
// while fail is set.
type switchInvoker struct {
	local *engine.LocalInvoker
	fail  atomic.Bool
}

func (s *switchInvoker) Invoke(ctx context.Context, req *engine.WorkerRequest) (*engine.WorkerResponse, error) {
	if s.fail.Load() {
		return &engine.WorkerResponse{Error: "injected: worker lost"}, nil
	}
	return s.local.Invoke(ctx, req)
}

// billedBytes sums pixels_billed_bytes_total over the tiers.
func billedBytes(t *testing.T, baseURL string) float64 {
	t.Helper()
	var sum float64
	for series, v := range scrape(t, baseURL) {
		if strings.HasPrefix(series, "pixels_billed_bytes_total") {
			sum += v
		}
	}
	return sum
}

// TestBillingConservationServed serves one query down each billing path —
// on a VM, on in-process CF, from the result cache, as a single-flight
// waiter, and failed on CF — and checks that every result block's bill is
// that query's ledger row, and that the bytes billed in results, in the
// ledger and in pixels_billed_bytes_total are one number.
func TestBillingConservationServed(t *testing.T) {
	cluster := vmsim.NewCluster(vclock.NewReal(), vmsim.Config{SlotsPerVM: 1}, 1)
	inv := &switchInvoker{}
	ts, srv := newStack(t, stackOpts{cluster: cluster, cfInvoker: inv, grace: time.Hour,
		planEntries: 64, resultBytes: 1 << 20, metrics: true})
	inv.local = &engine.LocalInvoker{Engine: srv.Engine}
	c := rover.NewClient(ts.URL)
	before := billedBytes(t, ts.URL)

	submit := func(sql, level string) string {
		t.Helper()
		resp, err := c.SubmitV1("tpch", sql, level, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return resp.ID
	}
	wait := func(id, status string) {
		t.Helper()
		if info, err := c.WaitTerminal(id, 30*time.Second); err != nil || info.Status != status {
			t.Fatalf("%s: %+v, %v; want %s", id, info, err, status)
		}
	}
	run := func(sql, level, status string) string {
		t.Helper()
		id := submit(sql, level)
		wait(id, status)
		return id
	}

	vm := run("SELECT COUNT(*) FROM orders", "immediate", "finished")
	hit := run("SELECT COUNT(*) FROM orders", "immediate", "finished")
	lease, ok := cluster.TryAcquire()
	if !ok {
		t.Fatal("the VM slot is busy")
	}
	cf := run("SELECT SUM(l_quantity) FROM lineitem", "immediate", "finished")
	inv.fail.Store(true)
	failed := run("SELECT MAX(l_extendedprice) FROM lineitem", "immediate", "failed")
	inv.fail.Store(false)
	fill := submit("SELECT COUNT(*) FROM customer", "relaxed")
	waiter := submit("SELECT COUNT(*) FROM customer", "relaxed")
	lease.Release()
	wait(fill, "finished")
	wait(waiter, "finished")

	rows := map[string]billing.QueryBill{}
	for _, b := range srv.Coord.Ledger().All() {
		rows[b.QueryID] = b
	}
	var inResults int64
	for _, p := range []struct {
		id             string
		usedCF, cached bool
		scans          bool
	}{
		{vm, false, false, true},
		{hit, false, true, false},
		{cf, true, false, true},
		{failed, true, false, false},
		{fill, false, false, true},
		{waiter, false, true, false},
	} {
		res, err := c.ResultV1(p.id)
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		row, ok := rows[p.id]
		if !ok {
			t.Fatalf("%s has no ledger row", p.id)
		}
		if res.UsedCF != p.usedCF || res.CacheHit != p.cached || (res.BytesScanned > 0) != p.scans {
			t.Errorf("%s ran as usedCF=%v cacheHit=%v scanned=%d B", p.id, res.UsedCF, res.CacheHit, res.BytesScanned)
		}
		if res.BytesScanned != row.BytesScanned || res.ListPrice != row.ListPrice || res.ResourceCost != row.ResourceCost {
			t.Errorf("%s: result bills %d B $%g list $%g cost, ledger row %d B $%g list $%g cost", p.id,
				res.BytesScanned, res.ListPrice, res.ResourceCost, row.BytesScanned, row.ListPrice, row.ResourceCost)
		}
		inResults += res.BytesScanned
	}
	if len(rows) != 6 {
		t.Errorf("%d ledger rows for 6 queries", len(rows))
	}
	if delta := billedBytes(t, ts.URL) - before; delta != float64(inResults) {
		t.Errorf("pixels_billed_bytes_total rose by %.0f B, result blocks bill %d B", delta, inResults)
	}
}

// TestForgottenQueryIsGone: once the coordinator has forgotten a terminal
// query's record, its status, result and cancel routes answer 410 gone,
// while an ID it never issued stays 404 — and the forgotten query's bill
// stays in the ledger.
func TestForgottenQueryIsGone(t *testing.T) {
	ts, srv := newStack(t, stackOpts{vms: 1, vm: vmsim.Config{SlotsPerVM: 1}, grace: time.Minute, resultBytes: 1 << 20})
	c := rover.NewClient(ts.URL)
	const stmt = "SELECT COUNT(*) FROM nation"
	first, err := c.SubmitV1("tpch", stmt, "immediate", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTerminal(first.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_, key, err := srv.QCache.Plan("tpch", stmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if _, ok := srv.Coord.Get(first.ID); !ok {
			break
		}
		if i == 10_000 {
			t.Fatal("10,000 later queries never forgot the first")
		}
		srv.Coord.Submit(stmt, billing.Immediate, core.PlanPayload{ResultKey: key}) // a cache hit, ended at once
	}

	expect := func(route string, err error, status int, code string) {
		t.Helper()
		var ae *rover.APIError
		if !errors.As(err, &ae) || ae.Status != status || ae.Code != code {
			t.Errorf("%s: %v, want HTTP %d %s", route, err, status, code)
		}
	}
	_, err = c.StatusV1(first.ID)
	expect("status", err, http.StatusGone, "gone")
	_, err = c.ResultV1(first.ID)
	expect("result", err, http.StatusGone, "gone")
	expect("cancel", c.CancelV1(first.ID), http.StatusGone, "gone")
	_, err = c.StatusV1("q-999999999")
	expect("status of an unissued ID", err, http.StatusNotFound, "not_found")
	_, err = c.ResultV1("q-999999999")
	expect("result of an unissued ID", err, http.StatusNotFound, "not_found")
	expect("cancel of an unissued ID", c.CancelV1("q-999999999"), http.StatusNotFound, "not_found")

	found := false
	for _, b := range srv.Coord.Ledger().All() {
		found = found || (b.QueryID == first.ID && b.BytesScanned > 0)
	}
	if !found {
		t.Errorf("the forgotten query's bill left the ledger")
	}
}
