package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// sample is everything the benchmark records about one client op. The
// submit/poll/result intervals are the client spans (source a); they stay
// in memory and are written to out/trace-<workload>.json at exit.
type sample struct {
	Client  int    `json:"client"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Kind    string `json:"kind"` // select | insert
	QueryID string `json:"query_id,omitempty"`
	// Unix microseconds. A SELECT runs Start→SubmitEnd (POST /v1/query),
	// →DoneSeen (status polls), →End (GET result, body read). An INSERT is
	// just Start→End around DB.Execute.
	Start     int64 `json:"start_us"`
	SubmitEnd int64 `json:"submit_end_us,omitempty"`
	DoneSeen  int64 `json:"done_seen_us,omitempty"`
	End       int64 `json:"end_us"`

	Polls       int    `json:"polls,omitempty"`
	ResultBytes int    `json:"result_bytes,omitempty"`
	Billed      int64  `json:"billed_bytes,omitempty"`
	UsedCF      bool   `json:"used_cf,omitempty"`
	Err         string `json:"error,omitempty"`

	trace *obs.SpanData // server span tree, span pass only
}

func (s *sample) latencyMs() float64 { return float64(s.End-s.Start) / 1000 }

// apiClient is one closed-loop client: a single keep-alive connection to
// the loopback Query Server.
type apiClient struct {
	base string
	http *http.Client
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c *apiClient) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole body.
func (c *apiClient) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON fetches one of the /v1 observability blocks.
func (c *apiClient) getJSON(ctx context.Context, path string, into any) error {
	code, data, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, data)
	}
	return json.Unmarshal(data, into)
}

// query runs one SELECT the way Rover and API callers do: submit, poll
// the status block, fetch the result. The first poll is immediate, later
// ones sleep 250 µs doubling to a 2 ms cap (rover.WaitTerminal's 5 ms
// sleep would quantise short queries). Latency runs from before the POST
// to after the result body is read; decoding happens outside it.
func (c *apiClient) query(ctx context.Context, sql, tier string, s *sample) (*server.ResultPayloadV1, error) {
	s.Start = time.Now().UnixMicro()
	code, data, err := c.do(ctx, http.MethodPost, "/v1/query",
		server.SubmitRequestV1{Database: database, SQL: sql, Level: tier})
	s.SubmitEnd = time.Now().UnixMicro()
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", code, data)
	}
	var sub server.SubmitResponseV1
	if err := json.Unmarshal(data, &sub); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	s.QueryID = sub.ID

	sleep := 250 * time.Microsecond
	for {
		code, data, err = c.do(ctx, http.MethodGet, "/v1/query/"+sub.ID, nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("status: status %d: %s", code, data)
		}
		s.Polls++
		var info struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(data, &info); err != nil {
			return nil, fmt.Errorf("status: %w", err)
		}
		if info.Status != "queued" && info.Status != "pending" && info.Status != "running" {
			break // finished, or a terminal failure the result block explains
		}
		time.Sleep(sleep)
		if sleep *= 2; sleep > 2*time.Millisecond {
			sleep = 2 * time.Millisecond
		}
	}
	s.DoneSeen = time.Now().UnixMicro()

	code, data, err = c.do(ctx, http.MethodGet, "/v1/query/"+sub.ID+"/result", nil)
	s.End = time.Now().UnixMicro()
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result: status %d: %s", code, data)
	}
	s.ResultBytes = len(data)
	var res server.ResultPayloadV1
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if res.Status != "finished" {
		return nil, fmt.Errorf("query %s %s: %s", sub.ID, res.Status, res.Error)
	}
	s.Billed, s.UsedCF = res.BytesScanned, res.UsedCF
	return &res, nil
}

// fetchTrace reads a finished query's server span tree (span pass only).
// The coordinator publishes a query's status before it stores the trace,
// so a fetch right after the result may be early; it is retried for up to
// 200 ms.
func (c *apiClient) fetchTrace(ctx context.Context, id string) (*obs.SpanData, error) {
	var tp server.TracePayloadV1
	var err error
	for try := 0; try < 100; try++ {
		if err = c.getJSON(ctx, "/v1/query/"+id+"/trace", &tp); err == nil {
			return tp.Root, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, err
}

// sameRows compares a served result with the reference rows, in order.
// Cells must be equal as rendered (the server renders col.Value.String(),
// and so does the reference side), except that two numbers may differ by
// 1e-9 relative: a float SUM depends on the order the partial sums meet,
// and that order differs between the serial reference and the parallel
// and CF paths. The tolerance is the engine's own (property_test.go).
func sameRows(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j, w := range want[i] {
			g := got[i][j]
			if g == w {
				continue
			}
			gf, gerr := strconv.ParseFloat(g, 64)
			wf, werr := strconv.ParseFloat(w, 64)
			if gerr != nil || werr != nil || math.Abs(gf-wf) > 1e-9*math.Max(1, math.Abs(wf)) {
				return false
			}
		}
	}
	return true
}
