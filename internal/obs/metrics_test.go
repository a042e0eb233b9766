package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "help", "tier")
	c.Inc("immediate")
	c.Add(4, "immediate")
	c.Inc("relaxed")
	if got := c.Value("immediate"); got != 5 {
		t.Fatalf("counter immediate = %d, want 5", got)
	}
	if got := c.Value("relaxed"); got != 1 {
		t.Fatalf("counter relaxed = %d, want 1", got)
	}
	c.Add(-3, "immediate") // negative deltas ignored
	if got := c.Value("immediate"); got != 5 {
		t.Fatalf("counter after negative add = %d, want 5", got)
	}
	c.SetTotal(9, "immediate")
	c.SetTotal(7, "immediate") // a stale snapshot never lowers the series
	if got := c.Value("immediate"); got != 9 {
		t.Fatalf("counter after SetTotal 9 then 7 = %d, want 9", got)
	}

	g := r.NewGauge("test_gauge", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestHistogramBucketsSumCount(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_seconds", "help", []float64{0.1, 1, 10}, "tier")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v, "imm")
	}
	if got := h.Count("imm"); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum("imm"); math.Abs(got-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{tier="imm",le="0.1"} 1`,
		`lat_seconds_bucket{tier="imm",le="1"} 3`,
		`lat_seconds_bucket{tier="imm",le="10"} 4`,
		`lat_seconds_bucket{tier="imm",le="+Inf"} 5`,
		`lat_seconds_sum{tier="imm"} 56.05`,
		`lat_seconds_count{tier="imm"} 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "second family", "tier").Inc("imm")
	r.NewGauge("a_gauge", "first family").Set(1.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Families sorted by name, each with HELP and TYPE headers.
	ai := strings.Index(out, "# HELP a_gauge")
	bi := strings.Index(out, "# HELP b_total")
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("families not present or unsorted:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE a_gauge gauge",
		"a_gauge 1.5",
		"# TYPE b_total counter",
		`b_total{tier="imm"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name{...} value" with no trailing junk.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("esc_total", "help", "q").Inc(`say "hi"\now`)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `q="say \"hi\"\\now"`) {
		t.Fatalf("escaping wrong: %s", b.String())
	}
}

func TestRegistryReregistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.NewCounter("dup_total", "help", "tier")
	c2 := r.NewCounter("dup_total", "other help", "tier")
	c1.Inc("imm")
	c2.Inc("imm")
	if got := c1.Value("imm"); got != 2 {
		t.Fatalf("re-registration did not share state: %d", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "help", "w")
	h := r.NewHistogram("conc_seconds", "help", []float64{1}, "w")
	g := r.NewGauge("conc_gauge", "help")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			label := string(rune('a' + i%2))
			for j := 0; j < 1000; j++ {
				c.Inc(label)
				h.Observe(0.5, label)
				g.Set(float64(j))
			}
		}(i)
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if got := c.Value("a") + c.Value("b"); got != 8000 {
		t.Fatalf("lost counter updates: %d", got)
	}
	if got := h.Count("a") + h.Count("b"); got != 8000 {
		t.Fatalf("lost histogram updates: %d", got)
	}
	if got := h.Sum("a") + h.Sum("b"); math.Abs(got-4000) > 1e-6 {
		t.Fatalf("lost histogram sum: %v", got)
	}
}

// TestTotalSuffixMeansCounter lints the well-known instruments: a family
// named *_total is a counter, and every counter carries the suffix.
func TestTotalSuffixMeansCounter(t *testing.T) {
	Default.mu.RLock()
	defer Default.mu.RUnlock()
	if len(Default.families) == 0 {
		t.Fatal("Default registry is empty")
	}
	for name, f := range Default.families {
		if total := strings.HasSuffix(name, "_total"); total != (f.kind == kindCounter) {
			t.Errorf("%s is a %s", name, f.kind)
		}
	}
}
