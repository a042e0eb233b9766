// Package obs is the observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms, Prometheus text
// exposition) and per-query trace spans carried via context from HTTP
// submit through admission, caching, planning and execution.
//
// The package deliberately imports nothing from the rest of the module so
// every layer (exec, engine, core, admission, server) can depend on it
// without cycles. All metric updates are lock-free atomic operations;
// spans are nil-safe so the tracing-off hot path costs a single pointer
// check.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. The zero value is not usable;
// construct with NewRegistry. A process-wide Default registry serves the
// common case.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// Default is the process-wide registry that the engine, coordinator and
// admission layers record into. The server's /metrics endpoint exports it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with a fixed label schema and one child per
// distinct label-value tuple.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string  // label names, fixed at registration
	buckets []float64 // histogram upper bounds (exclusive of +Inf)

	mu       sync.RWMutex
	children map[string]*child // key: joined label values
}

type child struct {
	labelValues []string
	val         atomic.Int64 // counter count / gauge value (gauges store float bits)

	// Histogram state: cumulative-free per-bucket counts plus sum and
	// total count. Sum is float bits CAS-updated.
	bucketCounts []atomic.Int64
	sumBits      atomic.Uint64
	count        atomic.Int64
}

func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		// Same name must mean same schema; observability must never
		// panic the serving path, so a mismatched re-registration
		// returns the existing family.
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]*child{},
	}
	sort.Float64s(f.buckets)
	r.families[name] = f
	return f
}

func (f *family) child(labelValues []string) *child {
	if len(labelValues) != len(f.labels) {
		// Arity mismatch: clamp/pad rather than panic.
		fixed := make([]string, len(f.labels))
		copy(fixed, labelValues)
		labelValues = fixed
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), labelValues...)}
	if f.kind == kindHistogram {
		c.bucketCounts = make([]atomic.Int64, len(f.buckets))
	}
	f.children[key] = c
	return c
}

// Counter is a monotonically increasing count, optionally labelled.
type Counter struct{ f *family }

// NewCounter registers (or fetches) a counter family.
func (r *Registry) NewCounter(name, help string, labels ...string) Counter {
	return Counter{r.register(name, help, kindCounter, labels, nil)}
}

// Add increments the counter for the given label values by delta.
func (c Counter) Add(delta int64, labelValues ...string) {
	if c.f == nil || delta < 0 {
		return
	}
	c.f.child(labelValues).val.Add(delta)
}

// Inc adds one.
func (c Counter) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// SetTotal raises the counter to total — the running count a component
// already keeps, read from its snapshot at scrape time. A total below the
// current value is ignored, so the series stays monotonic.
func (c Counter) SetTotal(total int64, labelValues ...string) {
	if c.f == nil {
		return
	}
	v := &c.f.child(labelValues).val
	for {
		cur := v.Load()
		if total <= cur || v.CompareAndSwap(cur, total) {
			return
		}
	}
}

// Value returns the current count for the label values (testing/inspection).
func (c Counter) Value(labelValues ...string) int64 {
	if c.f == nil {
		return 0
	}
	return c.f.child(labelValues).val.Load()
}

// Gauge is a value that can go up and down, optionally labelled.
type Gauge struct{ f *family }

// NewGauge registers (or fetches) a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) Gauge {
	return Gauge{r.register(name, help, kindGauge, labels, nil)}
}

// Set stores the value for the given label values.
func (g Gauge) Set(v float64, labelValues ...string) {
	if g.f == nil {
		return
	}
	g.f.child(labelValues).val.Store(int64(math.Float64bits(v)))
}

// Value returns the current gauge value.
func (g Gauge) Value(labelValues ...string) float64 {
	if g.f == nil {
		return 0
	}
	return math.Float64frombits(uint64(g.f.child(labelValues).val.Load()))
}

// Histogram is a fixed-bucket distribution, optionally labelled.
type Histogram struct{ f *family }

// DefBuckets covers sub-millisecond cache hits through multi-minute
// best-effort queries (seconds).
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// NewHistogram registers (or fetches) a histogram family with the given
// upper bounds (nil = DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return Histogram{r.register(name, help, kindHistogram, labels, buckets)}
}

// Observe records one sample.
func (h Histogram) Observe(v float64, labelValues ...string) {
	if h.f == nil || math.IsNaN(v) {
		return
	}
	c := h.f.child(labelValues)
	for i, ub := range h.f.buckets {
		if v <= ub {
			c.bucketCounts[i].Add(1)
			break
		}
	}
	c.count.Add(1)
	for {
		old := c.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations for the label values.
func (h Histogram) Count(labelValues ...string) int64 {
	if h.f == nil {
		return 0
	}
	return h.f.child(labelValues).count.Load()
}

// Sum returns the sum of observations for the label values.
func (h Histogram) Sum(labelValues ...string) float64 {
	if h.f == nil {
		return 0
	}
	return math.Float64frombits(h.f.child(labelValues).sumBits.Load())
}

// WritePrometheus writes every family in the Prometheus text exposition
// format (sorted by family name, then label tuple, for deterministic
// scrapes).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := f.children[k]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), c.val.Load())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""),
					formatFloat(math.Float64frombits(uint64(c.val.Load()))))
			case kindHistogram:
				cum := int64(0)
				for i, ub := range f.buckets {
					cum += c.bucketCounts[i].Load()
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						labelString(f.labels, c.labelValues, "le", formatFloat(ub)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.labelValues, "le", "+Inf"), c.count.Load())
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labelValues, "", ""),
					formatFloat(math.Float64frombits(c.sumBits.Load())))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, c.labelValues, "", ""), c.count.Load())
			}
		}
		f.mu.RUnlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders {k="v",...}, appending the extra pair (used for the
// histogram le label) when extraKey is non-empty. Returns "" when there
// are no labels at all.
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
