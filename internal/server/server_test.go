package server_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// stackOpts picks what a test stack turns on; the zero value is a bare
// coordinator with no capacity, no queue bounds, no caches and no tracing.
type stackOpts struct {
	token       string
	vms         int
	vm          vmsim.Config
	holdVMs     bool // take every VM lease for the life of the stack, so nothing is placed on a VM
	grace       time.Duration
	admission   *admission.Config // the scheduler's queue bounds (nil = none, nothing is shed)
	planEntries int               // plan-cache capacity (0 = off)
	resultBytes int64             // result-cache budget (0 = off)
	tracing     bool
	metrics     bool
	pprof       bool
}

// newStack stands up the serving stack on the real clock behind an
// httptest server.
func newStack(t *testing.T, o stackOpts) (*httptest.Server, *server.Server) {
	t.Helper()
	eng := engine.New(catalog.New(), objstore.NewMetered(objstore.NewMemory()))
	if err := workload.Load(eng, "tpch", workload.LoadOptions{SF: 0.002, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, o.vm, o.vms)
	if o.holdVMs {
		for lease, ok := cluster.TryAcquire(); ok; lease, ok = cluster.TryAcquire() {
			t.Cleanup(lease.Release)
		}
	}
	cf := cfsim.NewService(clk, cfsim.Config{ColdStart: time.Millisecond, WarmStart: time.Millisecond})
	qc := qcache.New(qcache.Config{
		Catalog: eng.Catalog(), Planner: eng.PlanQuery, PlanEntries: o.planEntries, ResultBytes: o.resultBytes,
	})
	cfg := core.Config{GracePeriod: o.grace, Admission: o.admission}
	if rc := qc.Results(); rc != nil {
		cfg.ResultCache = rc
	}
	srv := &server.Server{
		Engine:     eng,
		Translator: &nl2sql.Template{},
		Clock:      clk,
		DefaultDB:  "tpch",
		Token:      o.token,
		QCache:     qc,
		Tracing:    o.tracing,
		Metrics:    o.metrics,
		Pprof:      o.pprof,
	}
	if o.tracing {
		srv.TraceStore = obs.NewTraceStore(0)
		cfg.TraceStore = srv.TraceStore
	}
	srv.Coord = core.NewCoordinator(clk, cfg, cluster, cf, &core.PlannedExecutor{Engine: eng}, billing.NewLedger())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// newTestServer is a stack with a warm cluster, so queries run without
// scale-out waits.
func newTestServer(t *testing.T, token string) (*httptest.Server, *server.Server) {
	t.Helper()
	return newStack(t, stackOpts{token: token, vms: 2, vm: vmsim.Config{SlotsPerVM: 4}, grace: time.Minute})
}

func TestHealthAndSchemas(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	schemas, err := c.Schemas()
	if err != nil {
		t.Fatal(err)
	}
	if len(schemas.Databases) != 1 || schemas.Databases[0].Name != "tpch" {
		t.Fatalf("schemas = %+v", schemas)
	}
	if len(schemas.Databases[0].Tables) != 7 {
		t.Fatalf("tables = %d", len(schemas.Databases[0].Tables))
	}
	for _, tb := range schemas.Databases[0].Tables {
		if tb.Rows <= 0 || len(tb.Columns) == 0 {
			t.Fatalf("table %s empty: %+v", tb.Name, tb)
		}
	}
}

func TestTranslateSubmitResultFlow(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	sess := rover.NewSession(c, "tpch")

	// Use case 1: ask a question.
	it, err := sess.Ask("How many orders are there?")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(it.SQL, "COUNT(*)") {
		t.Fatalf("translated SQL = %q", it.SQL)
	}

	// Edit the query (code-block edit), then submit at Immediate.
	if err := sess.Edit("SELECT COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders"); err != nil {
		t.Fatal(err)
	}
	resp, err := sess.SubmitLast("immediate", 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.WaitTerminal(resp.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "finished" || info.Level != "immediate" {
		t.Fatalf("info = %+v", info)
	}

	res, err := c.ResultV1(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Columns[0] != "n" {
		t.Fatalf("result = %+v", res)
	}
	if res.BytesScanned <= 0 || res.ListPrice <= 0 {
		t.Fatalf("billing fields missing: %+v", res)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	if _, err := c.SubmitV1("tpch", "", "immediate", 0, 0); err == nil {
		t.Fatalf("empty SQL accepted")
	}
	if _, err := c.SubmitV1("tpch", "SELECT * FROM orders", "warp-speed", 0, 0); err == nil {
		t.Fatalf("bogus level accepted")
	}
	if _, err := c.SubmitV1("tpch", "NOT SQL AT ALL", "immediate", 0, 0); err == nil {
		t.Fatalf("bad SQL accepted")
	}
	if _, err := c.SubmitV1("tpch", "DROP TABLE orders", "immediate", 0, 0); err == nil {
		t.Fatalf("non-SELECT accepted")
	}
	if _, err := c.SubmitV1("tpch", "SELECT no_such_col FROM orders", "immediate", 0, 0); err == nil {
		t.Fatalf("plan error not surfaced at submit")
	}
	if _, err := c.StatusV1("q-999999"); err == nil {
		t.Fatalf("missing query returned status")
	}
}

func TestRowLimitApplied(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	resp, err := c.SubmitV1("tpch", "SELECT o_orderkey FROM orders", "immediate", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTerminal(resp.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.ResultV1(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("row limit ignored: %d rows", len(res.Rows))
	}
}

func TestResultConflictWhileRunning(t *testing.T) {
	ts, srv := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	resp, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM lineitem", "best-of-effort", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Immediately fetching the result may race completion; accept either
	// conflict or success, but never a 500.
	_, rerr := c.ResultV1(resp.ID)
	if rerr != nil && !strings.Contains(rerr.Error(), "HTTP 409") && !strings.Contains(rerr.Error(), "query is") {
		t.Fatalf("unexpected error: %v", rerr)
	}
	if _, err := c.WaitTerminal(resp.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	_ = srv
}

func TestReportEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	for _, lev := range []string{"immediate", "relaxed", "best-of-effort"} {
		resp, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM orders", lev, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitTerminal(resp.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := c.ReportSummary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 3 {
		t.Fatalf("summary levels = %d: %+v", len(sum), sum)
	}
	for _, s := range sum {
		if s.Queries != 1 || s.Finished != 1 {
			t.Fatalf("summary row = %+v", s)
		}
	}
	tl, err := c.ReportTimeline(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range tl {
		total += p.Total
	}
	if total != 3 {
		t.Fatalf("timeline total = %d", total)
	}
	page, err := c.ReportQueriesPage(time.Now().Add(-time.Hour), time.Now().Add(time.Hour), 100, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Queries) != 3 || page.NextCursor != "" {
		t.Fatalf("bills = %d, next cursor %q", len(page.Queries), page.NextCursor)
	}
	pb, err := c.PriceBook()
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Levels) != 3 || pb.Levels[0].USDPerTB != 5 || pb.Levels[1].USDPerTB != 2 || pb.Levels[2].USDPerTB != 0.5 {
		t.Fatalf("pricebook = %+v", pb)
	}
	if pb.CFvsVMUnitPriceRatio < 9 || pb.CFvsVMUnitPriceRatio > 24 {
		t.Fatalf("unit price ratio %f outside band", pb.CFvsVMUnitPriceRatio)
	}
}

func TestAuthToken(t *testing.T) {
	ts, _ := newTestServer(t, "sekrit")
	anon := rover.NewClient(ts.URL)
	if err := anon.Health(); err == nil {
		t.Fatalf("anonymous request accepted")
	}
	authed := rover.NewClient(ts.URL)
	authed.Token = "sekrit"
	if err := authed.Health(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateErrors(t *testing.T) {
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	if _, err := c.Translate("tpch", ""); err == nil {
		t.Fatalf("empty question accepted")
	}
	if _, err := c.Translate("nodb", "how many orders"); err == nil {
		t.Fatalf("missing db accepted")
	}
	if _, err := c.Translate("tpch", "sing me a song"); err == nil {
		t.Fatalf("untranslatable question did not error")
	}
}

func TestNLQueryEndToEnd(t *testing.T) {
	// The demo's full loop: question -> SQL -> submit relaxed -> result.
	ts, _ := newTestServer(t, "")
	c := rover.NewClient(ts.URL)
	sess := rover.NewSession(c, "tpch")
	it, err := sess.Ask("Number of customers per market segment")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.SubmitLast("relaxed", 0)
	if err != nil {
		t.Fatalf("submit %q: %v", it.SQL, err)
	}
	info, err := c.WaitTerminal(resp.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "finished" {
		t.Fatalf("status = %s (%s)", info.Status, info.Error)
	}
	res, err := c.ResultV1(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 2 {
		t.Fatalf("result = %+v", res)
	}
}
