// The /v1 API surface: the stable, versioned contract documented in
// docs/API.md. Errors use a uniform machine-readable envelope
// {"error": {"code", "message", "retry_after_ms"}}; submissions and
// status blocks carry the scheduler's queue state (queue position,
// deadline, shed reason); the query report paginates with an opaque cursor.
package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/qcache"
)

// errorBody is the v1 error envelope's payload. Code is stable and
// machine-readable; message is for humans. ShedReason and QueryID are
// set on admission-shed submissions so a shed query stays observable.
type errorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	ShedReason   string `json:"shed_reason,omitempty"`
	QueryID      string `json:"query_id,omitempty"`
	// Offset is the byte offset of the failing token in the submitted
	// SQL, present on invalid_sql errors (a pointer so offset 0 — an
	// error at the very first token — still serializes).
	Offset *int `json:"offset,omitempty"`
}

// errorEnvelope is the uniform v1 error shape.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// errConflict builds a 409 with the v1 "conflict" code.
func errConflict(format string, args ...any) error {
	return &httpError{code: http.StatusConflict, apiCode: "conflict", msg: fmt.Sprintf(format, args...)}
}

func defaultAPICode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "overloaded"
	default:
		return "internal"
	}
}

// retryAfterSeconds renders a duration for the Retry-After header
// (integer seconds, rounded up, at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeV1Error(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	body := errorBody{Code: "internal", Message: err.Error()}
	var he *httpError
	if errors.As(err, &he) {
		status = he.code
		body.Code = he.apiCode
		if body.Code == "" {
			body.Code = defaultAPICode(he.code)
		}
		body.Message = he.msg
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(he.retryAfter))
			body.RetryAfterMs = he.retryAfter.Milliseconds()
		}
		body.Offset = he.offset
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}

// v1 wraps a handler for the versioned tree: bearer auth and the
// structured error envelope.
func (s *Server) v1(h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Token != "" {
			auth := r.Header.Get("Authorization")
			if auth != "Bearer "+s.Token {
				writeV1Error(w, &httpError{code: http.StatusUnauthorized, msg: "unauthorized"})
				return
			}
		}
		if err := h(w, r); err != nil {
			writeV1Error(w, err)
		}
	}
}

// SubmitRequestV1 is the v1 submission body. deadline_ms, when set,
// tightens the tier's default completion deadline for EDF scheduling.
type SubmitRequestV1 struct {
	Database   string `json:"database"`
	SQL        string `json:"sql"`
	Level      string `json:"level"`
	RowLimit   int    `json:"row_limit"`
	DeadlineMs int64  `json:"deadline_ms"`
}

// SubmitResponseV1 identifies the scheduled query and reports its status
// as the response is written: queued, running, or already finished — a
// fast query, like a result-cache hit, can end before the handler reads
// its status. A shed submission is a 429 instead.
type SubmitResponseV1 struct {
	ID             string `json:"id"`
	Status         string `json:"status"`
	Level          string `json:"level"`
	LevelDefaulted bool   `json:"level_defaulted,omitempty"`
	QueuePosition  int    `json:"queue_position,omitempty"`
	QueueDepth     int    `json:"queue_depth,omitempty"`
	Deadline       string `json:"deadline,omitempty"`
}

func (s *Server) handleSubmitV1(w http.ResponseWriter, r *http.Request) error {
	var req SubmitRequestV1
	if err := readJSON(w, r, &req); err != nil {
		return err
	}
	p, planDur, err := s.tracedParse(req)
	if err != nil {
		return err
	}
	q := s.Coord.Submit(p.sqlText, p.level, p.payload)
	if p.payload.Trace != nil {
		p.payload.Trace.QueryID = q.ID
	}
	w.Header().Set("X-Query-Id", q.ID)
	w.Header().Set("Server-Timing", planTiming(planDur))
	status := q.Status()
	if status == core.StatusShed {
		reason, retryAfter := q.Shed()
		if retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		}
		writeJSON(w, http.StatusTooManyRequests, errorEnvelope{Error: errorBody{
			Code:         "overloaded",
			Message:      fmt.Sprintf("%s tier shed the query (%s); retry later", q.Level, reason),
			RetryAfterMs: retryAfter.Milliseconds(),
			ShedReason:   reason,
			QueryID:      q.ID,
		}})
		return nil
	}
	resp := SubmitResponseV1{
		ID:             q.ID,
		Status:         string(status),
		Level:          q.Level.String(),
		LevelDefaulted: p.defaulted,
		Deadline:       formatDeadline(q),
	}
	if status == core.StatusQueued {
		resp.QueuePosition, resp.QueueDepth = q.QueuePosition()
	}
	writeJSON(w, http.StatusAccepted, resp)
	return nil
}

// formatDeadline renders the completion deadline a query is scheduled
// against ("" when it has none: a scheduler without bounds).
func formatDeadline(q *core.Query) string {
	dl := q.Deadline()
	if dl.IsZero() {
		return ""
	}
	return dl.UTC().Format(time.RFC3339Nano)
}

// QueryInfoV1 is the status block: the query's identity, lifecycle and
// timings plus its place in the scheduler's queues.
type QueryInfoV1 struct {
	QueryInfo
	QueuePosition int    `json:"queue_position,omitempty"`
	QueueDepth    int    `json:"queue_depth,omitempty"`
	Deadline      string `json:"deadline,omitempty"`
	ShedReason    string `json:"shed_reason,omitempty"`
	RetryAfterMs  int64  `json:"retry_after_ms,omitempty"`
}

// lookup finds a query the status, result and cancel routes name.
func (s *Server) lookup(id string) (*core.Query, error) {
	if q, ok := s.Coord.Get(id); ok {
		return q, nil
	}
	return nil, s.unknownQuery(id)
}

// unknownQuery is the error for an ID the coordinator does not hold: 410
// gone when it issued the ID and has since forgotten the terminal query's
// record, 404 when it never issued it.
func (s *Server) unknownQuery(id string) error {
	if s.Coord.Issued(id) {
		return &httpError{code: http.StatusGone, apiCode: "gone",
			msg: fmt.Sprintf("query %q ended long ago and its record was dropped to bound server memory; its bill stays in the report", id)}
	}
	return errNotFound("query %q not found", id)
}

func (s *Server) handleQueryStatusV1(w http.ResponseWriter, r *http.Request) error {
	q, err := s.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	info := QueryInfoV1{QueryInfo: s.queryInfo(q), Deadline: formatDeadline(q)}
	switch q.Status() {
	case core.StatusQueued:
		info.QueuePosition, info.QueueDepth = q.QueuePosition()
	case core.StatusShed:
		reason, retryAfter := q.Shed()
		info.ShedReason, info.RetryAfterMs = reason, retryAfter.Milliseconds()
	}
	writeJSON(w, http.StatusOK, info)
	return nil
}

func (s *Server) handleQueryCancelV1(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if err := s.Coord.Cancel(id); err != nil {
		switch {
		case errors.Is(err, core.ErrNotQueued):
			return errConflict("%v", err)
		case errors.Is(err, core.ErrUnknownQuery):
			return s.unknownQuery(id)
		}
		return err
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "canceled"})
	return nil
}

// ResultPayloadV1 is the result block: rows, statistics and bill plus the
// completion deadline, so a bill can be reconciled against the
// service-level contract the query ran under.
type ResultPayloadV1 struct {
	ResultPayload
	Deadline    string `json:"deadline,omitempty"`
	DeadlineHit *bool  `json:"deadline_hit,omitempty"`
}

// notExecuted is the 409 for a query with no result or trace to serve:
// still waiting or running, or one that never ran at all.
func notExecuted(q *core.Query) error {
	switch status := q.Status(); status {
	case core.StatusShed:
		reason, retryAfter := q.Shed()
		return &httpError{code: http.StatusConflict, apiCode: "shed",
			msg:        fmt.Sprintf("query was shed (%s); it never executed", reason),
			retryAfter: retryAfter}
	case core.StatusCanceled:
		return errConflict("query was canceled while queued; it never executed")
	default:
		return errConflict("query is %s", status)
	}
}

func (s *Server) handleQueryResultV1(w http.ResponseWriter, r *http.Request) error {
	q, err := s.lookup(r.PathValue("id"))
	if err != nil {
		return err
	}
	switch q.Status() {
	case core.StatusFinished, core.StatusFailed:
	default:
		return notExecuted(q)
	}
	payload := ResultPayloadV1{ResultPayload: s.resultPayload(q), Deadline: formatDeadline(q)}
	if payload.Deadline != "" {
		_, _, end := q.Times()
		hit := !end.After(q.Deadline())
		payload.DeadlineHit = &hit
	}
	w.Header().Set("X-Query-Id", q.ID)
	w.Header().Set("Server-Timing", s.resultTiming(q.ID, payload.PendingMs, payload.ExecMs))
	// Checked after the payload read the result: a release is final, so
	// not released now means the rows above were all there.
	if q.Released() {
		payload.Rows = nil
		writeJSON(w, http.StatusGone, ResultGoneV1{ResultPayloadV1: payload, Error: errorBody{Code: "gone",
			Message: "the result's rows were released to bound server memory; status, statistics and bill remain"}})
		return nil
	}
	writeJSON(w, http.StatusOK, payload)
	return nil
}

// ResultGoneV1 is the 410 of a finished query whose rows the coordinator
// released: the error envelope (code "gone") beside the result block
// without rows — status, statistics and the bill stay available.
type ResultGoneV1 struct {
	ResultPayloadV1
	Error errorBody `json:"error"`
}

// ReportQueriesPageV1 is one cursor page of the query report.
type ReportQueriesPageV1 struct {
	Queries []BillPayload `json:"queries"`
	// NextCursor, when set, fetches the next page via ?cursor=...;
	// absent on the last page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// encodeCursor packs the pagination position (submit time + query id of
// the last row served) into an opaque token.
func encodeCursor(t time.Time, id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(t.UTC().Format(time.RFC3339Nano) + "|" + id))
}

func decodeCursor(s string) (time.Time, string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return time.Time{}, "", err
	}
	ts, id, ok := strings.Cut(string(raw), "|")
	if !ok {
		return time.Time{}, "", fmt.Errorf("malformed cursor")
	}
	at, err := time.Parse(time.RFC3339Nano, ts)
	if err != nil {
		return time.Time{}, "", err
	}
	return at, id, nil
}

func (s *Server) handleReportQueriesV1(w http.ResponseWriter, r *http.Request) error {
	to := s.Clock.Now()
	from := to.Add(-time.Hour)
	if v := r.URL.Query().Get("from"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return errBadRequest("invalid from %q", v)
		}
		from = t
	}
	if v := r.URL.Query().Get("to"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return errBadRequest("invalid to %q", v)
		}
		to = t
	}
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return errBadRequest("invalid limit %q", v)
		}
		if n > 1000 {
			n = 1000
		}
		limit = n
	}
	bills := s.Coord.Ledger().Between(from, to)
	// Total order (submit time, then id) so cursor pages are stable even
	// when many queries share a submit instant.
	sort.Slice(bills, func(i, j int) bool {
		if !bills[i].SubmitTime.Equal(bills[j].SubmitTime) {
			return bills[i].SubmitTime.Before(bills[j].SubmitTime)
		}
		return bills[i].QueryID < bills[j].QueryID
	})
	if v := r.URL.Query().Get("cursor"); v != "" {
		at, id, err := decodeCursor(v)
		if err != nil {
			return errBadRequest("invalid cursor %q", v)
		}
		i := sort.Search(len(bills), func(i int) bool {
			b := bills[i]
			if !b.SubmitTime.Equal(at) {
				return b.SubmitTime.After(at)
			}
			return b.QueryID > id
		})
		bills = bills[i:]
	}
	page := ReportQueriesPageV1{Queries: []BillPayload{}}
	for i, b := range bills {
		if i == limit {
			last := page.Queries[len(page.Queries)-1]
			st, _ := time.Parse(time.RFC3339Nano, last.SubmitTime)
			page.NextCursor = encodeCursor(st, last.QueryID)
			break
		}
		page.Queries = append(page.Queries, BillPayload{
			QueryID:      b.QueryID,
			Level:        b.Level.String(),
			Status:       b.Status,
			SubmitTime:   b.SubmitTime.UTC().Format(time.RFC3339Nano),
			PendingMs:    b.PendingTime().Milliseconds(),
			ExecMs:       b.ExecTime().Milliseconds(),
			BytesScanned: b.BytesScanned,
			ListPrice:    b.ListPrice,
			ResourceCost: b.ResourceCost,
			UsedCF:       b.UsedCF,
			CacheHit:     b.CacheHit,
		})
	}
	writeJSON(w, http.StatusOK, page)
	return nil
}

// AdmissionPayload is the /v1/admission observability block: the
// scheduler's tier queues, and the VM slots their heads are placed on.
type AdmissionPayload struct {
	admission.Snapshot
}

func (s *Server) handleAdmissionSnapshot(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, AdmissionPayload{s.Coord.Admission()})
	return nil
}

// CachePayload is the /v1/cache observability block: plan-cache and
// result-cache counters, entry counts and the result cache's byte budget.
type CachePayload struct {
	Enabled bool `json:"enabled"`
	qcache.Snapshot
}

// cacheSnapshot reads the cache counters; it reports the layer off (and
// nothing else) when neither level is configured and QCache only plans.
func (s *Server) cacheSnapshot() CachePayload {
	snap := s.QCache.Snapshot()
	if snap.Plan.Capacity == 0 && snap.Result.Capacity == 0 {
		return CachePayload{}
	}
	return CachePayload{Enabled: true, Snapshot: snap}
}

func (s *Server) handleCacheSnapshot(w http.ResponseWriter, _ *http.Request) error {
	writeJSON(w, http.StatusOK, s.cacheSnapshot())
	return nil
}
