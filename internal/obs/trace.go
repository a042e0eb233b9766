package obs

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// Trace is one query's span tree. It is created at HTTP submit when
// tracing is enabled and carried via context through admission, caching,
// planning and execution; worker processes ship their spans back as
// SpanData which is grafted under the coordinator's attempt span.
//
// A nil *Trace (tracing off) is fully usable: every method no-ops, so
// call sites never branch on enablement.
type Trace struct {
	QueryID string
	root    *Span
}

// NewTrace starts a trace whose root span opens now.
func NewTrace(queryID, rootName string) *Trace {
	t := &Trace{QueryID: queryID}
	t.root = newSpan(rootName)
	return t
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Span is one timed interval in a trace. All methods are safe on a nil
// receiver and safe for concurrent use: parallel workers start children
// of the same parent concurrently.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    map[string]any
	events   []SpanEvent
	children []*Span
}

// SpanEvent is a point-in-time annotation within a span (e.g. a retry).
type SpanEvent struct {
	Name string         `json:"name"`
	AtUs int64          `json:"at_us"` // offset from span start
	Attr map[string]any `json:"attrs,omitempty"`
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild opens a child span. Returns nil when the receiver is nil so
// the tracing-off path stays allocation-free.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Idempotent; later calls keep the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr records a key/value annotation on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Event records a point-in-time annotation (e.g. "result-cache-hit").
func (s *Span) Event(name string, attrs map[string]any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, SpanEvent{
		Name: name,
		AtUs: time.Since(s.start).Microseconds(),
		Attr: attrs,
	})
	s.mu.Unlock()
}

// Adopt grafts a serialized subtree (e.g. spans shipped back from a
// worker process) as a child of s.
func (s *Span) Adopt(data *SpanData) {
	if s == nil || data == nil {
		return
	}
	c := data.toSpan()
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SpanData is the serializable form of a span tree: it crosses the
// pixels-worker process boundary inside WorkerResponse and is the JSON
// shape served by /v1/query/{id}/trace.
type SpanData struct {
	Name       string         `json:"name"`
	StartUnix  int64          `json:"start_unix_us"`
	DurationUs int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []SpanEvent    `json:"events,omitempty"`
	Children   []*SpanData    `json:"children,omitempty"`
}

// Data snapshots the span subtree. Open spans report duration up to now.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	d := &SpanData{
		Name:       s.name,
		StartUnix:  s.start.UnixMicro(),
		DurationUs: end.Sub(s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	d.Events = append([]SpanEvent(nil), s.events...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Data())
	}
	return d
}

// toSpan rebuilds an in-memory (already-closed) span from its wire form.
func (d *SpanData) toSpan() *Span {
	start := time.UnixMicro(d.StartUnix)
	s := &Span{name: d.Name, start: start, end: start.Add(time.Duration(d.DurationUs) * time.Microsecond)}
	if len(d.Attrs) > 0 {
		s.attrs = make(map[string]any, len(d.Attrs))
		for k, v := range d.Attrs {
			s.attrs[k] = v
		}
	}
	s.events = append([]SpanEvent(nil), d.Events...)
	for _, c := range d.Children {
		s.children = append(s.children, c.toSpan())
	}
	return s
}

// Data snapshots the whole trace (nil for a nil trace).
func (t *Trace) Data() *SpanData {
	if t == nil {
		return nil
	}
	return t.root.Data()
}

// --- context plumbing ---

type traceKey struct{}
type spanKey struct{}

// ContextWithTrace returns ctx carrying the trace, with the trace root as
// the current span. A nil trace returns ctx unchanged (the cheap path).
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, traceKey{}, t)
	return context.WithValue(ctx, spanKey{}, t.root)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SpanFrom returns the current span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a child of the current span and makes it current.
// Without a trace in ctx it returns (ctx, nil) with no allocation beyond
// the two Value lookups, so instrumented code needs no enablement check.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.StartChild(name)
	return context.WithValue(ctx, spanKey{}, s), s
}

// --- trace retention ---

// TraceStore retains finished query traces in a bounded LRU keyed by
// query ID, backing GET /v1/query/{id}/trace.
type TraceStore struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are store entries
	byID  map[string]*list.Element
}

type storeEntry struct {
	id   string
	data *SpanData
}

// NewTraceStore returns a store retaining up to max traces (max <= 0
// defaults to 256).
func NewTraceStore(max int) *TraceStore {
	if max <= 0 {
		max = 256
	}
	return &TraceStore{max: max, order: list.New(), byID: map[string]*list.Element{}}
}

// Put stores (or replaces) the trace snapshot for a query ID.
func (ts *TraceStore) Put(id string, data *SpanData) {
	if ts == nil || data == nil || id == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if el, ok := ts.byID[id]; ok {
		el.Value.(*storeEntry).data = data
		ts.order.MoveToFront(el)
		return
	}
	ts.byID[id] = ts.order.PushFront(&storeEntry{id: id, data: data})
	for ts.order.Len() > ts.max {
		oldest := ts.order.Back()
		ts.order.Remove(oldest)
		delete(ts.byID, oldest.Value.(*storeEntry).id)
	}
}

// Get returns the stored trace for a query ID, or nil.
func (ts *TraceStore) Get(id string) *SpanData {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	el, ok := ts.byID[id]
	if !ok {
		return nil
	}
	ts.order.MoveToFront(el)
	return el.Value.(*storeEntry).data
}

// Len reports how many traces are retained.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.order.Len()
}
