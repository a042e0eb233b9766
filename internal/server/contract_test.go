package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/core"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/vmsim"
)

// TestErrorContractIndependentOfCaches pins the submit error mapping: a
// statement the parser rejects is invalid_sql with an offset, every other
// plan failure is bad_request without one — whatever caches are on.
func TestErrorContractIndependentOfCaches(t *testing.T) {
	configs := []struct {
		name         string
		opts         stackOpts
		cacheEnabled bool
	}{
		{"caches off", stackOpts{}, false},
		{"plan cache", stackOpts{planEntries: 16}, true},
		{"plan + result cache", stackOpts{planEntries: 16, resultBytes: 1 << 20}, true},
	}
	cases := []struct {
		sql    string
		code   string
		offset bool
	}{
		{"SELEC 1", "invalid_sql", true},
		{"SELECT nosuch FROM orders", "bad_request", false},
		{"INSERT INTO region VALUES (9, 'ATLANTIS')", "bad_request", false},
		{"SELECT COUNT(*) FROM nosuchtable", "bad_request", false},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			ts, _ := newStack(t, cfg.opts)
			for _, tc := range cases {
				body, _ := json.Marshal(server.SubmitRequestV1{SQL: tc.sql, Level: "immediate"})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var env struct {
					Error struct {
						Code   string `json:"code"`
						Offset *int   `json:"offset"`
					} `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("%q: %v", tc.sql, err)
				}
				if resp.StatusCode != http.StatusBadRequest || env.Error.Code != tc.code || (env.Error.Offset != nil) != tc.offset {
					t.Errorf("%q: HTTP %d code %q offset %v; want 400 %q offset=%v",
						tc.sql, resp.StatusCode, env.Error.Code, env.Error.Offset, tc.code, tc.offset)
				}
			}

			// The planner is always there; the cache layer reports itself on
			// only when a level is configured.
			resp, err := http.Get(ts.URL + "/v1/cache")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var snap server.CachePayload
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			if snap.Enabled != cfg.cacheEnabled || (!snap.Enabled && snap != server.CachePayload{}) {
				t.Fatalf("/v1/cache = %+v, want enabled=%v", snap, cfg.cacheEnabled)
			}
		})
	}
}

// TestBillAndTraceVisibleWithStatus races one observer per query against
// finalize: whoever first sees a terminal status must already find the
// ledger row and the stored trace — and get a result block that agrees
// with the ledger.
func TestBillAndTraceVisibleWithStatus(t *testing.T) {
	ts, srv := newStack(t, stackOpts{vms: 2, vm: vmsim.Config{SlotsPerVM: 4}, grace: time.Minute, tracing: true})
	c := rover.NewClient(ts.URL)
	const queries = 300
	inFlight := make(chan struct{}, 8) // the cluster's slot count: everything runs on a VM
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inFlight <- struct{}{}
			defer func() { <-inFlight }()
			sub, err := c.SubmitV1("tpch", "SELECT COUNT(*) FROM nation", "immediate", 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			q, ok := srv.Coord.Get(sub.ID)
			if !ok {
				t.Errorf("%s unknown to the coordinator", sub.ID)
				return
			}
			for st := q.Status(); st != core.StatusFinished; st = q.Status() {
				if st == core.StatusFailed {
					t.Errorf("%s failed: %v", sub.ID, q.Err())
					return
				}
				runtime.Gosched()
			}
			var row *billing.QueryBill
			for _, b := range srv.Coord.Ledger().All() {
				if b.QueryID == sub.ID {
					row = &b
				}
			}
			if row == nil || row.Status != "finished" || row.BytesScanned <= 0 {
				t.Errorf("%s finished before its ledger row: %+v", sub.ID, row)
				return
			}
			if srv.TraceStore.Get(sub.ID) == nil {
				t.Errorf("%s finished before its trace was stored", sub.ID)
			}
			res, err := c.ResultV1(sub.ID)
			if err != nil {
				t.Error(err)
				return
			}
			if res.ListPrice != row.ListPrice || res.BytesScanned != row.BytesScanned || res.ResourceCost != row.ResourceCost {
				t.Errorf("%s result block (%d B, $%g) disagrees with the ledger (%d B, $%g)",
					sub.ID, res.BytesScanned, res.ListPrice, row.BytesScanned, row.ListPrice)
			}
		}()
	}
	wg.Wait()
	if n := srv.Coord.Ledger().Len(); n != queries {
		t.Fatalf("ledger holds %d rows, want %d", n, queries)
	}
}

// TestRouteTableMatchesDocs keeps docs/API.md §Routes and the mux one
// table: every documented (method, path) is mounted under exactly that
// pattern, every mounted pattern is documented (pprof aside), and nothing
// lives outside /v1/, /metrics and /debug/pprof/ — in particular not the
// /api tree the contract replaced.
func TestRouteTableMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Routes\n")
	if !ok {
		t.Fatal("docs/API.md has no Routes section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| (GET|POST|DELETE|PUT|PATCH) \\| `([^`]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]+" "+m[2]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no rows parsed from the Routes table")
	}

	ts, srv := newStack(t, stackOpts{metrics: true, pprof: true})
	mux, ok := srv.Handler().(*http.ServeMux)
	if !ok {
		t.Fatalf("Handler() is a %T, want *http.ServeMux", srv.Handler())
	}
	matched := func(method, path string) string {
		req, err := http.NewRequest(method, strings.ReplaceAll(path, "{id}", "q-000001"), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, pattern := mux.Handler(req)
		return pattern
	}
	for route := range documented {
		method, path, _ := strings.Cut(route, " ")
		if got := matched(method, path); got != route {
			t.Errorf("documented route %q is served by pattern %q", route, got)
		}
		// The same route under the tree /v1 replaced must not exist.
		if rest, isV1 := strings.CutPrefix(path, "/v1"); isV1 {
			if got := matched(method, "/api"+rest); got != "" {
				t.Errorf("%s /api%s is mounted (pattern %q)", method, rest, got)
			}
		}
	}

	// Every pattern the package registers, read off its source.
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	register := regexp.MustCompile(`\.HandleFunc\("([^"]+)"`)
	mounted := 0
	for _, file := range sources {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range register.FindAllStringSubmatch(string(src), -1) {
			mounted++
			pattern := m[1]
			_, path, hasMethod := strings.Cut(pattern, " ")
			if !hasMethod {
				path = pattern
			}
			switch {
			case strings.HasPrefix(path, "/debug/pprof/"):
			case strings.HasPrefix(path, "/v1/"), path == "/metrics":
				if !documented[pattern] {
					t.Errorf("%s mounts %q, which docs/API.md does not list", file, pattern)
				}
			default:
				t.Errorf("%s mounts %q outside /v1/, /metrics and /debug/pprof/", file, pattern)
			}
		}
	}
	if mounted < len(documented) {
		t.Errorf("found %d registered patterns for %d documented routes", mounted, len(documented))
	}

	for _, probe := range []struct{ method, path string }{{"GET", "/health"}, {"POST", "/query"}} {
		probe.path = "/api" + probe.path
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(`{"sql":"SELECT 1"}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = HTTP %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}
