package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
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
