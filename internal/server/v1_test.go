package server_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/vmsim"
)

// newAdmissionServer stands up the stack with bounded scheduler queues.
// vms=0 (with an hour of boot delay and grace) makes every relaxed query
// wait in its queue for as long as the test runs, which gives tests
// deterministic control over queueing and shedding.
func newAdmissionServer(t *testing.T, vms int, cfg admission.Config) (*httptest.Server, *server.Server, *rover.Client) {
	t.Helper()
	ts, srv := newStack(t, stackOpts{
		vms: vms, vm: vmsim.Config{SlotsPerVM: 4, BootDelay: time.Hour}, grace: time.Hour, admission: &cfg,
	})
	return ts, srv, rover.NewClient(ts.URL)
}

func hourAll() map[billing.Level]time.Duration {
	return map[billing.Level]time.Duration{
		billing.Immediate: time.Hour, billing.Relaxed: time.Hour, billing.BestEffort: time.Hour,
	}
}

func TestV1SubmitStatusResultFlow(t *testing.T) {
	_, _, c := newAdmissionServer(t, 2, admission.Config{})

	// No level in the request: the default is applied and recorded as a
	// default, not silently passed off as a client choice.
	resp, err := c.SubmitV1("", "SELECT COUNT(*) AS n FROM orders", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.LevelDefaulted || resp.Level != "relaxed" {
		t.Fatalf("defaulting not recorded: %+v", resp)
	}
	// A COUNT(*) can finish before the response is written: the status is
	// queued, running or finished, and a finished one has its result now.
	switch resp.Status {
	case "queued", "running":
	case "finished":
		if _, err := c.ResultV1(resp.ID); err != nil {
			t.Fatalf("submit reported finished, result = %v", err)
		}
	default:
		t.Fatalf("submit status = %q", resp.Status)
	}
	info, err := c.WaitTerminal(resp.ID, 10*time.Second)
	if err != nil || info.Status != "finished" {
		t.Fatalf("terminal = %+v, %v", info, err)
	}
	if info.Level != "relaxed" || info.Deadline == "" {
		t.Fatalf("v1 status lacks the deadline: %+v", info)
	}
	res, err := c.ResultV1(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Columns[0] != "n" {
		t.Fatalf("result = %+v", res)
	}
	if res.Deadline == "" || res.DeadlineHit == nil || !*res.DeadlineHit {
		t.Fatalf("deadline accounting missing: deadline=%q hit=%v", res.Deadline, res.DeadlineHit)
	}
	if res.BytesScanned <= 0 || res.ListPrice <= 0 {
		t.Fatalf("bill missing: %+v", res)
	}

	// An explicit level echoes canonically and is not marked defaulted.
	resp2, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM customer", "best-of-effort", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.LevelDefaulted || resp2.Level != "best-of-effort" {
		t.Fatalf("explicit level: %+v", resp2)
	}
	if _, err := c.WaitTerminal(resp2.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestV1ErrorEnvelope(t *testing.T) {
	ts, _, c := newAdmissionServer(t, 2, admission.Config{})

	var ae *rover.APIError
	if _, err := c.StatusV1("q-nope"); !errors.As(err, &ae) || ae.Status != 404 || ae.Code != "not_found" {
		t.Fatalf("missing query error = %v", err)
	}
	if _, err := c.SubmitV1("tpch", "SELECT 1 FROM orders", "warp-speed", 0, 0); !errors.As(err, &ae) || ae.Code != "bad_request" {
		t.Fatalf("bad level error = %v", err)
	}
	if _, err := c.SubmitV1("tpch", "", "relaxed", 0, 0); !errors.As(err, &ae) || ae.Code != "bad_request" {
		t.Fatalf("empty sql error = %v", err)
	}

	// The raw body is the uniform envelope: {"error":{"code","message"}}.
	httpResp, err := http.Get(ts.URL + "/v1/query/q-nope")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "not_found" || env.Error.Message == "" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestV1ShedResponseCarriesRetryAfter(t *testing.T) {
	ts, _, c := newAdmissionServer(t, 0, admission.Config{
		QueueCap: map[billing.Level]int{billing.Relaxed: 1},
		MaxWait:  hourAll(), Deadline: hourAll(),
	})

	// First relaxed submission fills the tier's queue and waits there (no
	// VM capacity, hour of grace).
	r1, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM orders", "relaxed", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Status != "queued" {
		t.Fatalf("first submission = %+v", r1)
	}

	// Second one sheds: the queue is full. The raw response must carry the
	// Retry-After header and the structured envelope.
	body := `{"database":"tpch","sql":"SELECT COUNT(*) FROM customer","level":"relaxed"}`
	httpResp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d", httpResp.StatusCode)
	}
	if secs, err := strconv.Atoi(httpResp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After header = %q", httpResp.Header.Get("Retry-After"))
	}
	var env struct {
		Error struct {
			Code         string `json:"code"`
			RetryAfterMs int64  `json:"retry_after_ms"`
			ShedReason   string `json:"shed_reason"`
			QueryID      string `json:"query_id"`
		} `json:"error"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "overloaded" || env.Error.ShedReason != "queue-full" ||
		env.Error.RetryAfterMs <= 0 || env.Error.QueryID == "" {
		t.Fatalf("shed envelope = %+v", env.Error)
	}

	// The shed query stays observable by ID.
	info, err := c.StatusV1(env.Error.QueryID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "shed" || info.ShedReason != "queue-full" || info.RetryAfterMs <= 0 || info.Error == "" || info.EndTime == "" {
		t.Fatalf("shed status = %+v", info)
	}
	var ae *rover.APIError
	if _, err := c.ResultV1(env.Error.QueryID); !errors.As(err, &ae) || ae.Status != 409 || ae.Code != "shed" {
		t.Fatalf("shed result error = %v", err)
	}

	// And the rover client classifies it.
	_, err = c.SubmitV1("tpch", "SELECT COUNT(*) FROM nation", "relaxed", 0, 0)
	if shed, ok := rover.IsShed(err); !ok || shed.RetryAfter <= 0 {
		t.Fatalf("IsShed = %v, err %v", ok, err)
	}

	// A best-of-effort arrival behind the relaxed backlog is the first to
	// go, and says why.
	_, err = c.SubmitV1("tpch", "SELECT COUNT(*) FROM nation", "best-of-effort", 0, 0)
	if shed, ok := rover.IsShed(err); !ok || shed.ShedReason != "priority-pressure" {
		t.Fatalf("best-of-effort behind a relaxed backlog: %v", err)
	}

	snap, err := c.AdmissionSnapshot()
	if err != nil || len(snap.Tiers) != 3 {
		t.Fatalf("snapshot = %+v, %v", snap, err)
	}
	for _, tier := range snap.Tiers {
		if tier.Level == "relaxed" && (tier.Shed != 2 || tier.Queued != 1 || tier.QueueCap != 1) {
			t.Fatalf("relaxed tier = %+v", tier)
		}
	}
}

// TestV1CancelQueuedFreesAdmissionQueue: DELETE on a waiting query
// removes it from its queue without it ever executing or being billed, and
// ends it the same way whichever place in the queue it held.
func TestV1CancelQueuedFreesAdmissionQueue(t *testing.T) {
	_, srv, c := newAdmissionServer(t, 0, admission.Config{
		QueueCap: map[billing.Level]int{billing.Relaxed: 8},
		MaxWait:  hourAll(), Deadline: hourAll(),
	})

	r1, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM orders", "relaxed", 0, 0)
	if err != nil || r1.Status != "queued" || r1.QueuePosition != 1 {
		t.Fatalf("r1 = %+v, %v", r1, err)
	}
	r2, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM customer", "relaxed", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Status != "queued" || r2.QueuePosition != 2 || r2.QueueDepth != 2 || r2.Deadline == "" {
		t.Fatalf("r2 = %+v", r2)
	}
	info, err := c.StatusV1(r2.ID)
	if err != nil || info.Status != "queued" || info.QueuePosition != 2 {
		t.Fatalf("queued status = %+v, %v", info, err)
	}

	if err := c.CancelV1(r2.ID); err != nil {
		t.Fatal(err)
	}
	info, err = c.StatusV1(r2.ID)
	if err != nil || info.Status != "canceled" || info.QueuePosition != 0 {
		t.Fatalf("after cancel = %+v, %v", info, err)
	}
	var ae *rover.APIError
	if err := c.CancelV1(r2.ID); !errors.As(err, &ae) || ae.Status != 409 {
		t.Fatalf("double cancel = %v", err)
	}
	if err := c.CancelV1("q-999999"); !errors.As(err, &ae) || ae.Status != 404 {
		t.Fatalf("cancel unknown = %v", err)
	}
	if _, err := c.ResultV1(r2.ID); !errors.As(err, &ae) || ae.Status != 409 {
		t.Fatalf("result of a canceled query = %v", err)
	}

	// The queue entry was freed: the next submission takes position 2.
	r3, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM nation", "relaxed", 0, 0)
	if err != nil || r3.Status != "queued" || r3.QueuePosition != 2 {
		t.Fatalf("r3 = %+v, %v", r3, err)
	}

	// The head of the queue cancels to the same outcome.
	if err := c.CancelV1(r1.ID); err != nil {
		t.Fatal(err)
	}
	info, err = c.StatusV1(r1.ID)
	if err != nil || info.Status != "canceled" || !strings.Contains(info.Error, "canceled") {
		t.Fatalf("r1 after cancel = %+v, %v", info, err)
	}

	// Nothing executed, so nothing was billed.
	if bills := srv.Coord.Ledger().All(); len(bills) != 0 {
		t.Fatalf("billed without executing: %+v", bills)
	}

	// A running (or finished) query is past canceling.
	_, _, cw := newAdmissionServer(t, 2, admission.Config{})
	done, err := cw.SubmitV1("tpch", "SELECT COUNT(*) FROM orders", "immediate", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.CancelV1(done.ID); !errors.As(err, &ae) || ae.Status != 409 {
		t.Fatalf("cancel of a started query = %v", err)
	}
}

// TestBilledBytesCoverExecutedQueriesOnly checks the billing invariant
// under overload: shed and canceled queries never produce a bill, and the
// ledger total equals the sum over executed queries.
func TestBilledBytesCoverExecutedQueriesOnly(t *testing.T) {
	// Overloaded stack: two queries queued (one then canceled), one shed.
	// Nothing executes, so nothing may be billed.
	_, srvO, cO := newAdmissionServer(t, 0, admission.Config{
		QueueCap: map[billing.Level]int{billing.Relaxed: 2},
		MaxWait:  hourAll(), Deadline: hourAll(),
	})
	if _, err := cO.SubmitV1("tpch", "SELECT COUNT(*) FROM orders", "relaxed", 0, 0); err != nil {
		t.Fatal(err)
	}
	r2, err := cO.SubmitV1("tpch", "SELECT COUNT(*) FROM customer", "relaxed", 0, 0)
	if err != nil || r2.Status != "queued" {
		t.Fatalf("r2 = %+v, %v", r2, err)
	}
	_, err = cO.SubmitV1("tpch", "SELECT COUNT(*) FROM nation", "relaxed", 0, 0)
	if _, ok := rover.IsShed(err); !ok {
		t.Fatalf("overflow submission not shed: %v", err)
	}
	if err := cO.CancelV1(r2.ID); err != nil {
		t.Fatal(err)
	}
	if bills := srvO.Coord.Ledger().All(); len(bills) != 0 {
		t.Fatalf("overload run billed %d queries; none executed", len(bills))
	}

	// Executing stack: every finished query is billed, and the ledger
	// total is exactly the sum over those queries.
	_, srvW, cW := newAdmissionServer(t, 2, admission.Config{})
	executed := map[string]bool{}
	for _, q := range []string{
		"SELECT COUNT(*) FROM orders",
		"SELECT COUNT(*) FROM customer",
		"SELECT COUNT(*) FROM lineitem",
	} {
		resp, err := cW.SubmitV1("tpch", q, "immediate", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := cW.WaitTerminal(resp.ID, 10*time.Second); err != nil || info.Status != "finished" {
			t.Fatalf("%s: %+v, %v", q, info, err)
		}
		executed[resp.ID] = true
	}
	bills := srvW.Coord.Ledger().All()
	if len(bills) != len(executed) {
		t.Fatalf("billed %d queries, executed %d", len(bills), len(executed))
	}
	var total int64
	for _, b := range bills {
		if !executed[b.QueryID] {
			t.Fatalf("bill for non-executed query %s", b.QueryID)
		}
		if b.BytesScanned <= 0 {
			t.Fatalf("executed query %s billed zero bytes", b.QueryID)
		}
		total += b.BytesScanned
	}
	var viaAPI int64
	page, err := cW.ReportQueriesPage(time.Now().Add(-time.Hour), time.Now().Add(time.Hour), 100, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range page.Queries {
		viaAPI += b.BytesScanned
	}
	if viaAPI != total {
		t.Fatalf("report total %d != ledger total %d", viaAPI, total)
	}
}

func TestV1ReportQueriesPagination(t *testing.T) {
	_, _, c := newAdmissionServer(t, 2, admission.Config{})
	want := map[string]bool{}
	for _, table := range []string{"orders", "customer", "lineitem", "nation", "region"} {
		resp, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM "+table, "immediate", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := c.WaitTerminal(resp.ID, 10*time.Second); err != nil || info.Status != "finished" {
			t.Fatalf("%s: %+v, %v", table, info, err)
		}
		want[resp.ID] = true
	}

	from, to := time.Now().Add(-time.Hour), time.Now().Add(time.Hour)
	got := map[string]bool{}
	cursor, pages := "", 0
	for {
		page, err := c.ReportQueriesPage(from, to, 2, cursor)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if len(page.Queries) > 2 {
			t.Fatalf("page overflows limit: %d rows", len(page.Queries))
		}
		for _, b := range page.Queries {
			if got[b.QueryID] {
				t.Fatalf("query %s served twice", b.QueryID)
			}
			got[b.QueryID] = true
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 3 || len(got) != len(want) {
		t.Fatalf("pages = %d, rows = %d (want 3 pages, %d rows)", pages, len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("query %s missing from paged report", id)
		}
	}

	var ae *rover.APIError
	if _, err := c.ReportQueriesPage(from, to, 2, "not-a-cursor"); !errors.As(err, &ae) || ae.Code != "bad_request" {
		t.Fatalf("bad cursor error = %v", err)
	}
}

// TestPendingTimeIsOneClock queues four ≈40 ms joins at Relaxed behind one
// VM slot and checks that the wait the last one sat through is the same
// number everywhere it is reported — the status block, the ledger row and
// the report summary — and that the number is the wall-clock wait: the
// scheduler stamps arrival once, before any queueing.
func TestPendingTimeIsOneClock(t *testing.T) {
	ts, srv := newStack(t, stackOpts{vms: 1, vm: vmsim.Config{SlotsPerVM: 1}, grace: time.Hour, admission: &admission.Config{}})
	c := rover.NewClient(ts.URL)
	const join = "SELECT COUNT(*), SUM(a.l_extendedprice) FROM lineitem a, lineitem b WHERE a.l_suppkey = b.l_suppkey"
	var last string
	var sent, back time.Time
	for i := 0; i < 4; i++ {
		sent = time.Now()
		resp, err := c.SubmitV1("tpch", join, "relaxed", 0, 0)
		back = time.Now()
		if err != nil {
			t.Fatal(err)
		}
		last = resp.ID
	}
	// The wall wait of the fourth lies between (submit returned → last seen
	// queued) and (submit sent → first seen past the queue).
	stillQueued := back
	var seenStarted time.Time
	for seenStarted.IsZero() {
		info, err := c.StatusV1(last)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == "queued" {
			stillQueued = time.Now()
			time.Sleep(time.Millisecond)
		} else {
			seenStarted = time.Now()
		}
	}
	info, err := c.WaitTerminal(last, 30*time.Second)
	if err != nil || info.Status != "finished" || info.UsedCF {
		t.Fatalf("fourth join: %+v, %v", info, err)
	}
	const slack = 20 * time.Millisecond
	pending := time.Duration(info.PendingMs) * time.Millisecond
	if lo, hi := stillQueued.Sub(back), seenStarted.Sub(sent); pending <= 0 || pending < lo-slack || pending > hi+slack {
		t.Fatalf("status block reports %v pending; the wall wait was between %v and %v", pending, lo, hi)
	}
	var ledger time.Duration
	for _, b := range srv.Coord.Ledger().All() {
		if b.QueryID == last {
			ledger = b.PendingTime()
		}
	}
	if ledger.Milliseconds() != info.PendingMs {
		t.Fatalf("ledger reports %v pending, the status block %dms", ledger, info.PendingMs)
	}
	sum, err := c.ReportSummary()
	if err != nil || len(sum) != 1 || sum[0].Level != "relaxed" {
		t.Fatalf("summary = %+v, %v", sum, err)
	}
	// The fourth waited longest; the first not at all.
	if sum[0].MaxPendingMs != info.PendingMs || sum[0].AvgPendingMs <= 0 || sum[0].AvgPendingMs >= info.PendingMs {
		t.Fatalf("summary reports max %dms avg %dms pending; the fourth join waited %dms",
			sum[0].MaxPendingMs, sum[0].AvgPendingMs, info.PendingMs)
	}
}

// TestReleasedResultIsGone fills the coordinator's result retention with
// whole-table scans until the first one's rows are released: its result
// route then answers 410 gone with the bill, while its status and trace
// routes answer as before.
func TestReleasedResultIsGone(t *testing.T) {
	ts, srv := newStack(t, stackOpts{vms: 1, vm: vmsim.Config{SlotsPerVM: 1}, grace: time.Minute, tracing: true})
	c := rover.NewClient(ts.URL)
	run := func() string {
		t.Helper()
		sub, err := c.SubmitV1("tpch", "SELECT * FROM lineitem", "immediate", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if info, err := c.WaitTerminal(sub.ID, 30*time.Second); err != nil || info.Status != "finished" {
			t.Fatalf("%s: %+v, %v", sub.ID, info, err)
		}
		return sub.ID
	}
	first := run()
	kept, err := c.ResultV1(first)
	if err != nil || len(kept.Rows) == 0 {
		t.Fatalf("fresh result: %d rows, %v", len(kept.Rows), err)
	}
	q, _ := srv.Coord.Get(first)
	for i := 0; !q.Released(); i++ {
		if i == 64 {
			t.Fatal("64 whole-table results never released the first")
		}
		run()
	}

	resp, err := http.Get(ts.URL + "/v1/query/" + first + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gone server.ResultGoneV1
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGone || gone.Error.Code != "gone" || gone.Error.Message == "" {
		t.Fatalf("released result: HTTP %d error %+v, want 410 gone", resp.StatusCode, gone.Error)
	}
	if gone.Rows != nil || gone.Status != "finished" || len(gone.Columns) != len(kept.Columns) ||
		gone.RowsReturned != kept.RowsReturned {
		t.Fatalf("released result block = %+v", gone.ResultPayload.QueryInfo)
	}
	if gone.BytesScanned != kept.BytesScanned || gone.ListPrice != kept.ListPrice || gone.BytesScanned <= 0 || gone.ListPrice <= 0 {
		t.Fatalf("released bill %d B $%g, want %d B $%g", gone.BytesScanned, gone.ListPrice, kept.BytesScanned, kept.ListPrice)
	}
	var ae *rover.APIError
	if _, err := c.ResultV1(first); !errors.As(err, &ae) || ae.Status != http.StatusGone || ae.Code != "gone" {
		t.Fatalf("rover sees %v, want the gone envelope", err)
	}

	if info, err := c.StatusV1(first); err != nil || info.Status != "finished" || info.EndTime == "" {
		t.Fatalf("status of a released query = %+v, %v", info, err)
	}
	if tr, err := c.TraceV1(first); err != nil || tr.Root == nil || tr.QueryID != first {
		t.Fatalf("trace of a released query = %+v, %v", tr, err)
	}
}

// TestBodyCapAndDeepNesting: a body past server.MaxBodyBytes is refused
// with 413 and code too_large, before it is parsed; a statement nested
// deeper than sql.MaxDepth is invalid_sql (400); and the deepest one the
// parser admits is served.
func TestBodyCapAndDeepNesting(t *testing.T) {
	ts, _ := newTestServer(t, "")
	post := func(sqlText string) (int, string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"database": "tpch", "sql": sqlText, "level": "immediate"})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error.Code
	}
	huge := "SELECT COUNT(*) FROM orders WHERE o_comment <> '" + strings.Repeat("x", server.MaxBodyBytes) + "'"
	if status, code := post(huge); status != http.StatusRequestEntityTooLarge || code != "too_large" {
		t.Fatalf("over-cap body: %d %q", status, code)
	}
	deep := func(depth int) string {
		return "SELECT COUNT(*) FROM orders WHERE " + strings.Repeat("NOT ", depth) + "o_orderkey > 0"
	}
	if status, code := post(deep(sql.MaxDepth + 1)); status != http.StatusBadRequest || code != "invalid_sql" {
		t.Fatalf("too deep: %d %q", status, code)
	}
	if status, code := post(deep(sql.MaxDepth)); status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("deepest admitted: %d %q", status, code)
	}
}
