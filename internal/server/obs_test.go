package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/objstore/cache"
	"repro/internal/obs"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/vmsim"
)

// newObsServer stands up the full stack with tracing, metrics, admission
// and the repeat-traffic cache on, sharing one TraceStore between the
// coordinator (writer) and the server (reader).
func newObsServer(t *testing.T, tracing bool) (*httptest.Server, *rover.Client) {
	t.Helper()
	ts, srv := newStack(t, stackOpts{
		vms: 2, vm: vmsim.Config{SlotsPerVM: 4}, grace: time.Minute,
		admission: &admission.Config{}, planEntries: 16, resultBytes: 1 << 20,
		tracing: tracing, metrics: true,
	})
	srv.CacheStats = func() (cache.Stats, bool) {
		return cache.Stats{Hits: 3, Misses: 1, BytesFromCache: 4096}, true
	}
	return ts, rover.NewClient(ts.URL)
}

// postSubmit submits via raw HTTP so response headers are observable.
func postSubmit(t *testing.T, baseURL, sqlText string) (*http.Response, server.SubmitResponseV1) {
	t.Helper()
	body, _ := json.Marshal(server.SubmitRequestV1{SQL: sqlText, Level: "immediate"})
	resp, err := http.Post(baseURL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var out server.SubmitResponseV1
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestSubmitAndResultHeaders(t *testing.T) {
	ts, c := newObsServer(t, true)
	resp, sub := postSubmit(t, ts.URL, "SELECT COUNT(*) FROM orders")
	if got := resp.Header.Get("X-Query-Id"); got != sub.ID {
		t.Fatalf("submit X-Query-Id = %q, want %q", got, sub.ID)
	}
	if st := resp.Header.Get("Server-Timing"); !strings.Contains(st, "plan;dur=") {
		t.Fatalf("submit Server-Timing = %q, want plan;dur", st)
	}
	if _, err := c.WaitTerminal(sub.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rr, err := http.Get(ts.URL + "/v1/query/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", rr.StatusCode)
	}
	if got := rr.Header.Get("X-Query-Id"); got != sub.ID {
		t.Fatalf("result X-Query-Id = %q, want %q", got, sub.ID)
	}
	st := rr.Header.Get("Server-Timing")
	for _, metric := range []string{"queue;dur=", "plan;dur=", "exec;dur="} {
		if !strings.Contains(st, metric) {
			t.Fatalf("result Server-Timing = %q, want %s", st, metric)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	ts, c := newObsServer(t, true)
	_, sub := postSubmit(t, ts.URL, "SELECT o_orderstatus, COUNT(*) FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus")
	if _, err := c.WaitTerminal(sub.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tr, err := c.TraceV1(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.QueryID != sub.ID || tr.Root == nil {
		t.Fatalf("trace payload = %+v", tr)
	}
	if tr.Root.Name != "query" {
		t.Fatalf("root span = %q, want query", tr.Root.Name)
	}
	if err := obs.CheckWellFormed(tr.Root); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plan", "admission-queue"} {
		if len(obs.FindSpans(tr.Root, name)) != 1 {
			t.Fatalf("trace missing %q span", name)
		}
	}
	if got := tr.Root.Attrs["query_id"]; got != sub.ID {
		t.Fatalf("root query_id attr = %v", got)
	}
	if got := tr.Root.Attrs["tier"]; got != "immediate" {
		t.Fatalf("root tier attr = %v", got)
	}
	// Unknown id and pending-state behavior.
	if _, err := c.TraceV1("nope"); err == nil {
		t.Fatal("trace of unknown id succeeded")
	}
}

func TestTraceEndpointDisabled(t *testing.T) {
	_, c := newObsServer(t, false)
	_, sub := postSubmit(t, c.BaseURL, "SELECT COUNT(*) FROM orders")
	if _, err := c.WaitTerminal(sub.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_, err := c.TraceV1(sub.ID)
	var ae *rover.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != "tracing_disabled" {
		t.Fatalf("trace with tracing off: %v", err)
	}
}

func asAPIError(err error, out **rover.APIError) bool {
	ae, ok := err.(*rover.APIError)
	if ok {
		*out = ae
	}
	return ok
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$`)

func TestMetricsEndpoint(t *testing.T) {
	ts, c := newObsServer(t, true)
	_, sub := postSubmit(t, ts.URL, "SELECT COUNT(*) FROM orders")
	if _, err := c.WaitTerminal(sub.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		`pixels_queries_total{tier="immediate",status="finished"}`,
		`pixels_query_exec_seconds_bucket{tier="immediate",le="+Inf"}`,
		"pixels_query_exec_seconds_sum",
		"pixels_query_exec_seconds_count",
		"pixels_billed_bytes_total",
		"pixels_slot_pool_size",
		`pixels_admission_queue_depth{tier="immediate"}`,
		"pixels_plan_cache_misses_total",
		"pixels_objstore_cache_hit_ratio 0.75",
		"pixels_objstore_cache_served_bytes 4096",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q\n%s", want, text)
		}
	}
}

// TestTracingOnOffIdenticalResults submits the same query to a traced and
// an untraced stack and asserts the result block — rows, stats, billed
// bytes and prices — is identical.
func TestTracingOnOffIdenticalResults(t *testing.T) {
	q := "SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders GROUP BY o_orderstatus ORDER BY o_orderstatus"
	var payloads []server.ResultPayloadV1
	for _, tracing := range []bool{false, true} {
		ts, c := newObsServer(t, tracing)
		_, sub := postSubmit(t, ts.URL, q)
		if _, err := c.WaitTerminal(sub.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		res, err := c.ResultV1(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, res)
	}
	off, on := payloads[0], payloads[1]
	if len(off.Rows) != len(on.Rows) {
		t.Fatalf("row counts differ: %d off vs %d on", len(off.Rows), len(on.Rows))
	}
	for i := range off.Rows {
		for j := range off.Rows[i] {
			if off.Rows[i][j] != on.Rows[i][j] {
				t.Fatalf("row %d col %d: %q off vs %q on", i, j, off.Rows[i][j], on.Rows[i][j])
			}
		}
	}
	// ResourceCost is wall-time-priced and so varies run to run; the
	// bytes-derived bill must match exactly.
	if off.BytesScanned != on.BytesScanned || off.RowsReturned != on.RowsReturned ||
		off.ListPrice != on.ListPrice {
		t.Fatalf("billing differs: off %+v vs on %+v", off.ResultPayload, on.ResultPayload)
	}
}

// scrape reads every sample of GET /metrics, keyed by series
// (name{labels}).
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			out[series] = v
		}
	}
	return out
}

// TestPromisesReadableOffMetrics runs the backlog script — every VM slot
// held, six Relaxed arrivals — and reads the Relaxed promise off /metrics:
// six placements on CF, each after one grace period of pending time on the
// scheduler's one clock, none shed; and nothing the deleted second queueing
// layer exported.
func TestPromisesReadableOffMetrics(t *testing.T) {
	const grace = 150 * time.Millisecond
	ts, _ := newStack(t, stackOpts{
		vms: 1, vm: vmsim.Config{SlotsPerVM: 2}, holdVMs: true, grace: grace,
		admission: &admission.Config{}, metrics: true,
	})
	c := rover.NewClient(ts.URL)
	before := scrape(t, ts.URL)
	var ids []string
	for i := 0; i < 6; i++ {
		resp, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM orders", "relaxed", 0, 0)
		if err != nil || resp.Status != "queued" {
			t.Fatalf("arrival %d: %+v, %v", i, resp, err)
		}
		ids = append(ids, resp.ID)
	}
	mid := scrape(t, ts.URL)
	if got := mid[`pixels_admission_queue_depth{tier="relaxed"}`]; got != 6 {
		t.Errorf("queue depth gauge = %v with six queued", got)
	}
	if size, busy := mid["pixels_slot_pool_size"], mid["pixels_slot_pool_busy"]; size != 2 || busy != 2 {
		t.Errorf("slot pool gauges = %v busy of %v, want the cluster's 2 of 2", busy, size)
	}
	for _, id := range ids {
		if info, err := c.WaitTerminal(id, 30*time.Second); err != nil || info.Status != "finished" || !info.UsedCF {
			t.Fatalf("%s: %+v, %v", id, info, err)
		}
	}
	after := scrape(t, ts.URL)
	delta := func(series string) float64 { return after[series] - before[series] }
	if got := delta(`pixels_query_placements_total{tier="relaxed",placement="cf"}`); got != 6 {
		t.Errorf("relaxed placements on CF = %v, want 6", got)
	}
	if got := delta(`pixels_query_placements_total{tier="relaxed",placement="vm"}`); got != 0 {
		t.Errorf("relaxed placements on VMs = %v with every slot held", got)
	}
	if got := delta(`pixels_query_pending_seconds_count{tier="relaxed"}`); got != 6 {
		t.Errorf("pending observations = %v, want one per started query", got)
	}
	// Timers fire late, never early.
	if got, want := delta(`pixels_query_pending_seconds_sum{tier="relaxed"}`), 6*grace.Seconds(); got < want || got > want+1.5 {
		t.Errorf("relaxed pending sum = %.3fs, want ≈ 6 × grace = %.3fs", got, want)
	}
	if got := delta(`pixels_admission_shed_total{tier="relaxed",reason="queue-timeout"}`); got != 0 {
		t.Errorf("%v relaxed queries shed queue-timeout", got)
	}
	for series := range after {
		if strings.HasPrefix(series, "pixels_admission_queue_wait_seconds") {
			t.Fatalf("/metrics still exports %s", series)
		}
	}
}
