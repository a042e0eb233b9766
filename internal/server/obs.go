// The observability surface: per-query trace creation at submit, the
// GET /v1/query/{id}/trace endpoint, the Prometheus GET /metrics
// exporter, correlation headers (X-Query-Id, Server-Timing), and the
// opt-in net/http/pprof mount. Tracing is off unless Server.Tracing is
// set; every span call below is nil-safe, so the disabled path costs two
// context lookups at most.
package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// startTrace begins a query trace when tracing is enabled (nil
// otherwise; the nil trace no-ops through every layer).
func (s *Server) startTrace() *obs.Trace {
	if !s.Tracing {
		return nil
	}
	return obs.NewTrace("", "query")
}

// tracedParse wraps parseSubmit in the trace's "plan" span — the
// normalized-plan-cache lookup or the parse+bind+optimize pipeline —
// and measures plan wall time for the Server-Timing header (measured
// whether or not tracing is on; the header is always served).
func (s *Server) tracedParse(req SubmitRequestV1) (*parsedSubmit, time.Duration, error) {
	tr := s.startTrace()
	pspan := tr.Root().StartChild("plan")
	t0 := time.Now()
	p, err := s.parseSubmit(req)
	planDur := time.Since(t0)
	pspan.End()
	if err != nil {
		return nil, planDur, err
	}
	p.payload.Trace = tr
	return p, planDur, nil
}

// planTiming renders the submit-side Server-Timing header value.
func planTiming(planDur time.Duration) string {
	return fmt.Sprintf("plan;dur=%.3f", float64(planDur.Microseconds())/1000)
}

// resultTiming builds the result-side Server-Timing value: queue (the
// query's pending time), plan (from the stored trace, when tracing kept
// one) and exec, all in milliseconds.
func (s *Server) resultTiming(id string, pendingMs, execMs int64) string {
	parts := []string{fmt.Sprintf("queue;dur=%d", pendingMs)}
	if root := s.TraceStore.Get(id); root != nil {
		if plans := obs.FindSpans(root, "plan"); len(plans) > 0 {
			parts = append(parts, fmt.Sprintf("plan;dur=%.3f", float64(plans[0].DurationUs)/1000))
		}
	}
	parts = append(parts, fmt.Sprintf("exec;dur=%d", execMs))
	return strings.Join(parts, ", ")
}

// TracePayloadV1 is the GET /v1/query/{id}/trace response: the query's
// span tree, rooted at the "query" span that opened at HTTP submit.
type TracePayloadV1 struct {
	QueryID string        `json:"query_id"`
	Root    *obs.SpanData `json:"root"`
}

func (s *Server) handleQueryTraceV1(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if s.TraceStore == nil {
		return &httpError{code: http.StatusNotFound, apiCode: "tracing_disabled",
			msg: "tracing is disabled; start the server with tracing enabled (-trace)"}
	}
	if root := s.TraceStore.Get(id); root != nil {
		writeJSON(w, http.StatusOK, TracePayloadV1{QueryID: id, Root: root})
		return nil
	}
	// No stored trace: distinguish "not done yet" and "never ran" from
	// "never traced".
	if q, ok := s.Coord.Get(id); ok {
		switch q.Status() {
		case core.StatusFinished, core.StatusFailed:
		default:
			return notExecuted(q)
		}
	}
	return errNotFound("no trace for query %q", id)
}

// handleMetrics serves the Prometheus text exposition. Event-sourced
// instruments (counters, latency histograms) are already current; the
// point-in-time gauges and the cache counters are refreshed here from
// component snapshots so a scrape always sees live depths and cache
// activity.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	adm := s.Coord.Admission()
	obs.SlotPoolSize.Set(float64(adm.TotalSlots))
	obs.SlotPoolBusy.Set(float64(adm.UsedSlots))
	for _, t := range adm.Tiers {
		obs.AdmissionQueueDepth.Set(float64(t.Queued), t.Level)
		obs.AdmissionRunning.Set(float64(t.Running), t.Level)
	}
	if snap := s.cacheSnapshot(); snap.Enabled {
		obs.PlanCacheHits.SetTotal(int64(snap.Plan.Hits))
		obs.PlanCacheMisses.SetTotal(int64(snap.Plan.Misses))
		obs.ResultCacheHits.SetTotal(int64(snap.Result.Hits))
		obs.ResultCacheMisses.SetTotal(int64(snap.Result.Misses))
		obs.ResultCacheEvictions.SetTotal(int64(snap.Result.Evictions))
		obs.ResultCacheBytes.Set(float64(snap.Result.Bytes))
	}
	if s.CacheStats != nil {
		if st, ok := s.CacheStats(); ok {
			if total := st.Hits + st.Misses; total > 0 {
				obs.ObjstoreCacheHitRatio.Set(float64(st.Hits) / float64(total))
			}
			obs.ObjstoreCacheHits.SetTotal(st.Hits)
			obs.ObjstoreCacheMisses.SetTotal(st.Misses)
			obs.ObjstoreCacheServedBytes.Set(float64(st.BytesFromCache))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}
