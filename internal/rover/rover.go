// Package rover is the client side of PixelsDB — the programmatic
// counterpart of the Pixels-Rover web front-end (Sec. II(1)). It wraps the
// Query Server REST API with typed calls for every UI panel: the schema
// browser, the translator (ask → edit → submit at a service level), the
// query status/result blocks and the Report tab.
package rover

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// Client talks to a Query Server.
type Client struct {
	BaseURL string
	Token   string
	HTTP    *http.Client
}

// NewClient builds a client for the base URL (no trailing slash).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) do(method, path string, body any, out any) error {
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, reader)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var env struct {
			Error struct {
				Code         string `json:"code"`
				Message      string `json:"message"`
				RetryAfterMs int64  `json:"retry_after_ms"`
				ShedReason   string `json:"shed_reason"`
				QueryID      string `json:"query_id"`
			} `json:"error"`
		}
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			return &APIError{
				Status:     resp.StatusCode,
				Code:       env.Error.Code,
				Message:    env.Error.Message,
				RetryAfter: time.Duration(env.Error.RetryAfterMs) * time.Millisecond,
				ShedReason: env.Error.ShedReason,
				QueryID:    env.Error.QueryID,
			}
		}
		return fmt.Errorf("rover: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// APIError is a structured /v1 error. A shed submission surfaces as
// Status 429 with Code "overloaded", the shed reason and a retry hint.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
	ShedReason string
	QueryID    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rover: %s (HTTP %d, code %s)", e.Message, e.Status, e.Code)
}

// IsShed reports whether an error is a 429 load-shed response.
func IsShed(err error) (*APIError, bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
		return ae, true
	}
	return nil, false
}

// Health pings the server.
func (c *Client) Health() error {
	return c.do(http.MethodGet, "/v1/health", nil, nil)
}

// Schemas fetches the schema browser contents.
func (c *Client) Schemas() (server.SchemaPayload, error) {
	var out server.SchemaPayload
	err := c.do(http.MethodGet, "/v1/schemas", nil, &out)
	return out, err
}

// Translate sends a question to the text-to-SQL service.
func (c *Client) Translate(database, question string) (server.TranslateResponse, error) {
	var out server.TranslateResponse
	err := c.do(http.MethodPost, "/v1/translate",
		server.TranslateRequest{Database: database, Question: question}, &out)
	return out, err
}

// ReportSummary fetches per-level aggregates.
func (c *Client) ReportSummary() ([]server.LevelSummaryPayload, error) {
	var out []server.LevelSummaryPayload
	err := c.do(http.MethodGet, "/v1/report/summary", nil, &out)
	return out, err
}

// ReportTimeline fetches the query-count timeline for the last `minutes`.
func (c *Client) ReportTimeline(minutes, stepSec int) ([]server.TimelinePointPayload, error) {
	var out []server.TimelinePointPayload
	path := fmt.Sprintf("/v1/report/timeline?minutes=%d&stepSec=%d", minutes, stepSec)
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// PriceBook fetches the level/price table.
func (c *Client) PriceBook() (server.PriceBookPayload, error) {
	var out server.PriceBookPayload
	err := c.do(http.MethodGet, "/v1/pricebook", nil, &out)
	return out, err
}

// SubmitV1 schedules SQL through the /v1 contract: the response carries
// what the scheduler did with the query (queued|running, queue position,
// deadline), and a load-shed submission returns an *APIError with Status
// 429 (see IsShed).
// deadline, when positive, tightens the tier's default EDF deadline.
func (c *Client) SubmitV1(database, sqlText, level string, rowLimit int, deadline time.Duration) (server.SubmitResponseV1, error) {
	var out server.SubmitResponseV1
	err := c.do(http.MethodPost, "/v1/query", server.SubmitRequestV1{
		Database: database, SQL: sqlText, Level: level,
		RowLimit: rowLimit, DeadlineMs: deadline.Milliseconds(),
	}, &out)
	return out, err
}

// StatusV1 fetches the v1 status block (with the query's queue state).
func (c *Client) StatusV1(id string) (server.QueryInfoV1, error) {
	var out server.QueryInfoV1
	err := c.do(http.MethodGet, "/v1/query/"+id, nil, &out)
	return out, err
}

// ResultV1 fetches the v1 result block (with deadline accounting).
func (c *Client) ResultV1(id string) (server.ResultPayloadV1, error) {
	var out server.ResultPayloadV1
	err := c.do(http.MethodGet, "/v1/query/"+id+"/result", nil, &out)
	return out, err
}

// CancelV1 cancels a queued query via /v1: it leaves its queue without
// ever starting or being billed.
func (c *Client) CancelV1(id string) error {
	return c.do(http.MethodDelete, "/v1/query/"+id, nil, nil)
}

// TraceV1 fetches a finished query's span tree. The server answers 404
// with code "tracing_disabled" when it runs without -trace, and 409
// while the query is still queued or running.
func (c *Client) TraceV1(id string) (server.TracePayloadV1, error) {
	var out server.TracePayloadV1
	err := c.do(http.MethodGet, "/v1/query/"+id+"/trace", nil, &out)
	return out, err
}

// AdmissionSnapshot fetches the /v1/admission observability block.
func (c *Client) AdmissionSnapshot() (server.AdmissionPayload, error) {
	var out server.AdmissionPayload
	err := c.do(http.MethodGet, "/v1/admission", nil, &out)
	return out, err
}

// ReportQueriesPage fetches one cursor page of per-query bills; pass the
// previous page's NextCursor to continue (empty cursor = first page).
func (c *Client) ReportQueriesPage(from, to time.Time, limit int, cursor string) (server.ReportQueriesPageV1, error) {
	var out server.ReportQueriesPageV1
	path := fmt.Sprintf("/v1/report/queries?from=%s&to=%s&limit=%d",
		from.UTC().Format(time.RFC3339Nano), to.UTC().Format(time.RFC3339Nano), limit)
	if cursor != "" {
		path += "&cursor=" + cursor
	}
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// WaitTerminal polls /v1 status until the query reaches a terminal state
// (finished, failed, shed or canceled), with a timeout.
func (c *Client) WaitTerminal(id string, timeout time.Duration) (server.QueryInfoV1, error) {
	deadline := time.Now().Add(timeout)
	for {
		info, err := c.StatusV1(id)
		if err != nil {
			return info, err
		}
		switch info.Status {
		case "finished", "failed", "shed", "canceled":
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("rover: query %s still %s after %s", id, info.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Interaction is one translator-panel exchange: a question, its SQL (as
// translated, then possibly edited), and the submitted query.
type Interaction struct {
	Question   string
	SQL        string
	Translator string
	Confidence float64
	QueryID    string
	Level      string
}

// Session models a Pixels-Rover session: a selected database plus the
// translator-panel history, supporting the demo's ask → edit → submit →
// check flow (Sec. IV-A).
type Session struct {
	Client   *Client
	Database string
	History  []Interaction
}

// NewSession opens a session on a database.
func NewSession(c *Client, database string) *Session {
	return &Session{Client: c, Database: database}
}

// Ask translates a question and records it in the history.
func (s *Session) Ask(question string) (*Interaction, error) {
	tr, err := s.Client.Translate(s.Database, question)
	if err != nil {
		return nil, err
	}
	s.History = append(s.History, Interaction{
		Question: question, SQL: tr.SQL, Translator: tr.Translator, Confidence: tr.Confidence,
	})
	return &s.History[len(s.History)-1], nil
}

// Edit replaces the SQL of the latest interaction (the code-block edit
// button).
func (s *Session) Edit(sqlText string) error {
	if len(s.History) == 0 {
		return fmt.Errorf("rover: nothing to edit")
	}
	s.History[len(s.History)-1].SQL = sqlText
	return nil
}

// SubmitLast submits the latest interaction's SQL at a service level.
func (s *Session) SubmitLast(level string, rowLimit int) (server.SubmitResponseV1, error) {
	if len(s.History) == 0 {
		return server.SubmitResponseV1{}, fmt.Errorf("rover: nothing to submit")
	}
	it := &s.History[len(s.History)-1]
	resp, err := s.Client.SubmitV1(s.Database, it.SQL, level, rowLimit, 0)
	if err != nil {
		return resp, err
	}
	it.QueryID = resp.ID
	it.Level = resp.Level
	return resp, nil
}
