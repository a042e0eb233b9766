// Package server implements the Query Server of Pixels-Turbo (Sec. II(2)):
// a REST API that receives queries from clients such as Pixels-Rover,
// forwards natural-language questions to the text-to-SQL service, submits
// queries to the coordinator at a chosen service level, and serves the
// status/result blocks and the Report tab's cost-visibility data.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/objstore/cache"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/sql"
	"repro/internal/vclock"

	httppprof "net/http/pprof"
)

// Server wires the engine, coordinator and translator behind HTTP.
type Server struct {
	Engine     *engine.Engine
	Coord      *core.Coordinator
	Translator nl2sql.Translator
	Clock      vclock.Clock
	DefaultDB  string
	// Token, when non-empty, requires "Authorization: Bearer <Token>".
	Token string
	// QCache plans every submission (required): its Plan turns the
	// request's database, SQL text and row limit into the bound plan and
	// the result key the coordinator's result cache answers from. With
	// both cache levels off it is plain parse + bind + optimize.
	QCache *qcache.Cache
	// TraceStore, when set, turns tracing on: every submission opens an
	// obs.Trace whose span tree follows the query through planning,
	// queueing and execution and is retained here at finalize. It backs
	// GET /v1/query/{id}/trace and must be the same store the
	// coordinator's Config.TraceStore writes to. Nil answers the trace
	// route with "tracing disabled".
	TraceStore *obs.TraceStore
	// Metrics, when true, mounts GET /metrics (Prometheus text format).
	// The endpoint is served without bearer auth so scrapers need no
	// credential plumbing.
	Metrics bool
	// Pprof, when true, mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// CacheStats, when set, reports object-store read-cache counters for
	// /metrics (ok=false means the cache is disabled).
	CacheStats func() (cache.Stats, bool)
}

// Handler builds the route table: the versioned /v1 contract
// (docs/API.md), plus /metrics and /debug/pprof/ when enabled.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/health", s.v1(s.handleHealth))
	mux.HandleFunc("GET /v1/schemas", s.v1(s.handleSchemas))
	mux.HandleFunc("POST /v1/translate", s.v1(s.handleTranslate))
	mux.HandleFunc("POST /v1/query", s.v1(s.handleSubmitV1))
	mux.HandleFunc("GET /v1/query/{id}", s.v1(s.handleQueryStatusV1))
	mux.HandleFunc("DELETE /v1/query/{id}", s.v1(s.handleQueryCancelV1))
	mux.HandleFunc("GET /v1/query/{id}/result", s.v1(s.handleQueryResultV1))
	mux.HandleFunc("GET /v1/report/summary", s.v1(s.handleReportSummary))
	mux.HandleFunc("GET /v1/report/timeline", s.v1(s.handleReportTimeline))
	mux.HandleFunc("GET /v1/report/queries", s.v1(s.handleReportQueriesV1))
	mux.HandleFunc("GET /v1/pricebook", s.v1(s.handlePriceBook))
	mux.HandleFunc("GET /v1/admission", s.v1(s.handleAdmissionSnapshot))
	mux.HandleFunc("GET /v1/cache", s.v1(s.handleCacheSnapshot))
	mux.HandleFunc("GET /v1/query/{id}/trace", s.v1(s.handleQueryTraceV1))
	if s.Metrics {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// httpError carries a status code, the v1 machine-readable error code,
// (for 429s) a retry hint, and (for SQL errors) the byte offset of the
// failing token in the submitted statement.
type httpError struct {
	code       int
	apiCode    string
	msg        string
	retryAfter time.Duration
	offset     *int
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// planError maps a qcache.Plan failure onto the API contract, the same
// way whatever the cache configuration: a statement the lexer or parser
// rejects is invalid_sql with the byte offset of the failing token;
// everything else — a non-SELECT, an unknown table or column, any other
// bind or plan failure — is a plain bad_request.
func planError(err error) error {
	var se *sql.Error
	if errors.As(err, &se) {
		off := se.Pos
		return &httpError{code: http.StatusBadRequest, apiCode: "invalid_sql",
			msg: fmt.Sprintf("SQL error: %v", err), offset: &off}
	}
	return errBadRequest("plan error: %v", err)
}

func errNotFound(format string, args ...any) error {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("invalid JSON body: %v", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return nil
}

// SchemaPayload is the schema-browser response.
type SchemaPayload struct {
	Databases []DatabaseInfo `json:"databases"`
}

// DatabaseInfo is one database in the schema browser.
type DatabaseInfo struct {
	Name   string      `json:"name"`
	Tables []TableInfo `json:"tables"`
}

// TableInfo is one table in the schema browser.
type TableInfo struct {
	Name    string       `json:"name"`
	Rows    int64        `json:"rows"`
	Bytes   int64        `json:"bytes"`
	Columns []ColumnInfo `json:"columns"`
}

// ColumnInfo is one column in the schema browser.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (s *Server) handleSchemas(w http.ResponseWriter, _ *http.Request) error {
	cat := s.Engine.Catalog()
	var payload SchemaPayload
	for _, db := range cat.ListDatabases() {
		info := DatabaseInfo{Name: db}
		tables, err := cat.ListTables(db)
		if err != nil {
			return err
		}
		for _, tn := range tables {
			t, err := cat.GetTable(db, tn)
			if err != nil {
				return err
			}
			ti := TableInfo{Name: t.Name, Rows: t.RowCount(), Bytes: t.TotalBytes()}
			for _, c := range t.Columns {
				ti.Columns = append(ti.Columns, ColumnInfo{Name: c.Name, Type: c.Type.String()})
			}
			info.Tables = append(info.Tables, ti)
		}
		payload.Databases = append(payload.Databases, info)
	}
	writeJSON(w, http.StatusOK, payload)
	return nil
}

// TranslateRequest asks the text-to-SQL service for a translation.
type TranslateRequest struct {
	Database string `json:"database"`
	Question string `json:"question"`
}

// TranslateResponse is the translation.
type TranslateResponse struct {
	SQL        string  `json:"sql"`
	Confidence float64 `json:"confidence"`
	Translator string  `json:"translator"`
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) error {
	var req TranslateRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	if req.Database == "" {
		req.Database = s.DefaultDB
	}
	if req.Question == "" {
		return errBadRequest("question is required")
	}
	schema, err := nl2sql.SchemaFromCatalog(s.Engine.Catalog(), req.Database)
	if err != nil {
		if errors.Is(err, catalog.ErrNotFound) {
			return errNotFound("database %q not found", req.Database)
		}
		return err
	}
	tr, err := s.Translator.Translate(nl2sql.Request{Question: req.Question, Schema: schema})
	if err != nil {
		if errors.Is(err, nl2sql.ErrNoTranslation) {
			return errBadRequest("cannot translate: %v", err)
		}
		return err
	}
	writeJSON(w, http.StatusOK, TranslateResponse{SQL: tr.SQL, Confidence: tr.Confidence, Translator: tr.Translator})
	return nil
}

// parsedSubmit is a validated submission, ready to hand to the coordinator.
type parsedSubmit struct {
	sqlText   string
	level     billing.Level
	defaulted bool // level absent from the request; default applied
	payload   core.PlanPayload
}

// parseSubmit validates a submit body and plans the query.
func (s *Server) parseSubmit(req SubmitRequestV1) (*parsedSubmit, error) {
	if req.Database == "" {
		req.Database = s.DefaultDB
	}
	if req.SQL == "" {
		return nil, errBadRequest("sql is required")
	}
	p := &parsedSubmit{sqlText: req.SQL, level: billing.Relaxed, defaulted: true}
	if req.Level != "" {
		lev, err := billing.ParseLevel(req.Level)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		p.level, p.defaulted = lev, false
	}
	if req.DeadlineMs < 0 {
		return nil, errBadRequest("deadline_ms must be >= 0")
	}
	node, resultKey, err := s.QCache.Plan(req.Database, req.SQL, int64(req.RowLimit))
	if err != nil {
		return nil, planError(err)
	}
	p.payload = core.PlanPayload{Node: node, ResultKey: resultKey,
		Deadline: time.Duration(req.DeadlineMs) * time.Millisecond}
	return p, nil
}

// QueryInfo is a query's identity, lifecycle and timings. Status is one of
// queued | running | finished | failed | shed | canceled, all emitted by the
// scheduler; PendingMs runs from arrival to start on its one clock.
type QueryInfo struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	Level      string `json:"level"`
	SQL        string `json:"sql"`
	UsedCF     bool   `json:"usedCF"`
	CacheHit   bool   `json:"cacheHit,omitempty"`
	Error      string `json:"error,omitempty"`
	SubmitTime string `json:"submitTime"`
	StartTime  string `json:"startTime,omitempty"`
	EndTime    string `json:"endTime,omitempty"`
	PendingMs  int64  `json:"pendingMs"`
	ExecMs     int64  `json:"execMs"`
}

func (s *Server) queryInfo(q *core.Query) QueryInfo {
	sub, start, end := q.Times()
	info := QueryInfo{
		ID:         q.ID,
		Status:     string(q.Status()),
		Level:      q.Level.String(),
		SQL:        q.SQL,
		UsedCF:     q.UsedCF(),
		CacheHit:   q.CacheHit(),
		SubmitTime: sub.UTC().Format(time.RFC3339Nano),
	}
	if err := q.Err(); err != nil {
		info.Error = err.Error()
	}
	now := s.Clock.Now()
	switch {
	case start.IsZero() && end.IsZero():
		info.PendingMs = now.Sub(sub).Milliseconds()
	case start.IsZero():
		// Shed or canceled: it waited until it was turned away.
		info.EndTime = end.UTC().Format(time.RFC3339Nano)
		info.PendingMs = end.Sub(sub).Milliseconds()
	default:
		info.StartTime = start.UTC().Format(time.RFC3339Nano)
		info.PendingMs = start.Sub(sub).Milliseconds()
		if end.IsZero() {
			info.ExecMs = now.Sub(start).Milliseconds()
		} else {
			info.EndTime = end.UTC().Format(time.RFC3339Nano)
			info.ExecMs = end.Sub(start).Milliseconds()
		}
	}
	return info
}

// ResultPayload is a finished query's result block: rows, statistics and
// the bill (pending time, execution time and monetary cost — Sec. IV-A(3)).
type ResultPayload struct {
	QueryInfo
	Columns      []string   `json:"columns"`
	Types        []string   `json:"types"`
	Rows         [][]string `json:"rows"`
	BytesScanned int64      `json:"bytesScanned"`
	RowsReturned int64      `json:"rowsReturned"`
	// ColumnChunksSkipped and RowsFiltered expose the scan's late
	// materialization: chunks never fetched because their row group's
	// predicate columns selected no rows, and rows the pushed-down filter
	// dropped. Skipped chunks are the one legitimate way BytesScanned (and
	// so the bill) shrinks without changing the answer.
	ColumnChunksSkipped int64   `json:"columnChunksSkipped"`
	RowsFiltered        int64   `json:"rowsFiltered"`
	CacheHits           int64   `json:"cacheHits"`
	CacheMisses         int64   `json:"cacheMisses"`
	ListPrice           float64 `json:"listPrice"`
	ResourceCost        float64 `json:"resourceCost"`
	// Cached marks a result served from the result cache: no scan ran, so
	// BytesScanned (and the bill) are zero. Origin reports the stats of
	// the execution that originally filled the cache entry.
	Cached bool                `json:"cached,omitempty"`
	Origin *OriginStatsPayload `json:"origin,omitempty"`
}

// OriginStatsPayload is the original execution's work, attached to cached
// results so clients still see what the answer cost to produce once.
type OriginStatsPayload struct {
	BytesScanned        int64 `json:"bytesScanned"`
	RowsScanned         int64 `json:"rowsScanned"`
	RowsReturned        int64 `json:"rowsReturned"`
	ColumnChunksSkipped int64 `json:"columnChunksSkipped"`
	RowsFiltered        int64 `json:"rowsFiltered"`
}

// resultPayload builds the rows/stats/bill block for a terminal query. The
// billed figures are the query's own bill — the same figures as its ledger
// row, never the scan stats: the coordinator sets both before it publishes
// the terminal status, so they are there for every query this is called on.
func (s *Server) resultPayload(q *core.Query) ResultPayload {
	payload := ResultPayload{QueryInfo: s.queryInfo(q)}
	if res := q.Result(); res != nil {
		payload.Columns = res.Columns
		for _, t := range res.Types {
			payload.Types = append(payload.Types, t.String())
		}
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			payload.Rows = append(payload.Rows, cells)
		}
		payload.RowsReturned = res.Stats.RowsReturned
		payload.ColumnChunksSkipped = res.Stats.ColumnChunksSkipped
		payload.RowsFiltered = res.Stats.RowsFiltered
		payload.CacheHits = res.Stats.CacheHits
		payload.CacheMisses = res.Stats.CacheMisses
		payload.Cached = res.Cached
		if res.Origin != nil {
			payload.Origin = &OriginStatsPayload{
				BytesScanned:        res.Origin.BytesScanned,
				RowsScanned:         res.Origin.RowsScanned,
				RowsReturned:        res.Origin.RowsReturned,
				ColumnChunksSkipped: res.Origin.ColumnChunksSkipped,
				RowsFiltered:        res.Origin.RowsFiltered,
			}
		}
	}
	bill := q.Bill()
	payload.BytesScanned, payload.ListPrice, payload.ResourceCost = bill.BytesScanned, bill.ListPrice, bill.ResourceCost
	return payload
}

// LevelSummaryPayload is one level's row in the report summary.
type LevelSummaryPayload struct {
	Level        string  `json:"level"`
	Queries      int     `json:"queries"`
	Finished     int     `json:"finished"`
	Failed       int     `json:"failed"`
	BytesScanned int64   `json:"bytesScanned"`
	ListPrice    float64 `json:"listPrice"`
	ResourceCost float64 `json:"resourceCost"`
	AvgPendingMs int64   `json:"avgPendingMs"`
	MaxPendingMs int64   `json:"maxPendingMs"`
	AvgExecMs    int64   `json:"avgExecMs"`
}

func (s *Server) handleReportSummary(w http.ResponseWriter, _ *http.Request) error {
	sum := s.Coord.Ledger().Summary()
	var out []LevelSummaryPayload
	for _, lev := range billing.Levels() {
		v, ok := sum[lev]
		if !ok {
			continue
		}
		out = append(out, LevelSummaryPayload{
			Level:        lev.String(),
			Queries:      v.Queries,
			Finished:     v.Finished,
			Failed:       v.Failed,
			BytesScanned: v.BytesScanned,
			ListPrice:    v.ListPrice,
			ResourceCost: v.ResourceCost,
			AvgPendingMs: v.AvgPending.Milliseconds(),
			MaxPendingMs: v.MaxPending.Milliseconds(),
			AvgExecMs:    v.AvgExec.Milliseconds(),
		})
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// TimelinePointPayload is one bucket of the query-count timeline chart.
type TimelinePointPayload struct {
	Start  string         `json:"start"`
	Total  int            `json:"total"`
	Counts map[string]int `json:"counts"`
}

func (s *Server) handleReportTimeline(w http.ResponseWriter, r *http.Request) error {
	minutes := 60
	if v := r.URL.Query().Get("minutes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return errBadRequest("invalid minutes %q", v)
		}
		minutes = n
	}
	step := time.Minute
	if v := r.URL.Query().Get("stepSec"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return errBadRequest("invalid stepSec %q", v)
		}
		step = time.Duration(n) * time.Second
	}
	to := s.Clock.Now()
	from := to.Add(-time.Duration(minutes) * time.Minute)
	var out []TimelinePointPayload
	for _, p := range s.Coord.Ledger().Timeline(from, to, step) {
		tp := TimelinePointPayload{
			Start:  p.Start.UTC().Format(time.RFC3339),
			Total:  p.Total,
			Counts: map[string]int{},
		}
		for lev, n := range p.Counts {
			tp.Counts[lev.String()] = n
		}
		out = append(out, tp)
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// BillPayload is one query row of the report's performance/cost charts.
type BillPayload struct {
	QueryID      string  `json:"queryId"`
	Level        string  `json:"level"`
	Status       string  `json:"status"`
	SubmitTime   string  `json:"submitTime"`
	PendingMs    int64   `json:"pendingMs"`
	ExecMs       int64   `json:"execMs"`
	BytesScanned int64   `json:"bytesScanned"`
	ListPrice    float64 `json:"listPrice"`
	ResourceCost float64 `json:"resourceCost"`
	UsedCF       bool    `json:"usedCF"`
	CacheHit     bool    `json:"cacheHit,omitempty"`
}

// PriceBookPayload lists the service levels with their $/TB prices —
// the "label with its performance and price" from the introduction.
type PriceBookPayload struct {
	Levels []LevelPrice `json:"levels"`
	// CFvsVMUnitPriceRatio is the heterogeneity the scheduler exploits.
	CFvsVMUnitPriceRatio float64 `json:"cfVsVmUnitPriceRatio"`
}

// LevelPrice is one level's listed price.
type LevelPrice struct {
	Level     string  `json:"level"`
	USDPerTB  float64 `json:"usdPerTB"`
	Guarantee string  `json:"guarantee"`
}

func (s *Server) handlePriceBook(w http.ResponseWriter, _ *http.Request) error {
	p := billing.Default()
	grace := s.Coord.Config().GracePeriod
	payload := PriceBookPayload{CFvsVMUnitPriceRatio: p.UnitPriceRatio()}
	payload.Levels = []LevelPrice{
		{Level: billing.Immediate.String(), USDPerTB: p.ScanPricePerTBAt(billing.Immediate),
			Guarantee: "starts immediately"},
		{Level: billing.Relaxed.String(), USDPerTB: p.ScanPricePerTBAt(billing.Relaxed),
			Guarantee: fmt.Sprintf("starts within %s", grace)},
		{Level: billing.BestEffort.String(), USDPerTB: p.ScanPricePerTBAt(billing.BestEffort),
			Guarantee: "no pending time guarantee"},
	}
	writeJSON(w, http.StatusOK, payload)
	return nil
}
