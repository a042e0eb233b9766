package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/workload"
)

func TestAllExperimentsMatchPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r := e.Run()
			if r.ID != e.ID {
				t.Fatalf("result ID %q != registry ID %q", r.ID, e.ID)
			}
			if !r.ShapeOK {
				t.Fatalf("%s diverges from the paper: %s", e.ID, r.Shape)
			}
			if len(r.Rows) == 0 || len(r.Headers) == 0 {
				t.Fatalf("%s has no table", e.ID)
			}
		})
	}
}

func TestRunSimBasics(t *testing.T) {
	cfg := continuousWorkload(billing.Relaxed, 1)
	cfg.Duration = 20 * time.Minute
	res := RunSim(cfg)
	if res.Queries == 0 {
		t.Fatalf("no queries submitted")
	}
	if res.Finished+res.Failed != res.Queries {
		t.Fatalf("unsettled queries: %d finished, %d failed of %d", res.Finished, res.Failed, res.Queries)
	}
	if res.TotalCost <= 0 || res.VMCost <= 0 {
		t.Fatalf("costs not accrued: %+v", res)
	}
	if res.TotalCost < res.BaselineCost {
		t.Fatalf("total %f below baseline %f", res.TotalCost, res.BaselineCost)
	}
	if res.BytesScanned <= 0 {
		t.Fatalf("no bytes scanned")
	}
	if res.WallTime < cfg.Duration {
		t.Fatalf("wall time %v shorter than arrival window", res.WallTime)
	}
}

func TestRunSimDeterministic(t *testing.T) {
	cfg := continuousWorkload(billing.Immediate, 9)
	cfg.Duration = 15 * time.Minute
	a := RunSim(cfg)
	b := RunSim(continuousWorkloadCopy(9))
	if a.Queries != b.Queries || a.TotalCost != b.TotalCost || a.CFQueries != b.CFQueries {
		t.Fatalf("not deterministic: %+v vs %+v", a, b)
	}
}

// continuousWorkloadCopy rebuilds the exact config (arrival processes hold
// rng state, so configs cannot be reused across runs).
func continuousWorkloadCopy(seed int64) SimConfig {
	cfg := continuousWorkload(billing.Immediate, seed)
	cfg.Duration = 15 * time.Minute
	return cfg
}

func TestPendingStatsPercentiles(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Second)
	}
	st := pendingStats(ds)
	if st.Count != 100 || st.Max != 100*time.Second {
		t.Fatalf("stats = %+v", st)
	}
	if st.P50 != 51*time.Second || st.P99 != 100*time.Second {
		t.Fatalf("percentiles = p50 %v p99 %v", st.P50, st.P99)
	}
	if pendingStats(nil).Count != 0 {
		t.Fatalf("empty stats wrong")
	}
}

func TestRenderProducesTable(t *testing.T) {
	r := Result{
		ID: "X", Title: "test", Paper: "claim",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		ShapeOK: true, Shape: "ok",
	}
	var sb strings.Builder
	Render(&sb, r)
	out := sb.String()
	for _, want := range []string{"== X: test ==", "claim", "333", "shape MATCHES: ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLevelMixedSimFinishes(t *testing.T) {
	cfg := continuousWorkload(billing.Immediate, 33)
	cfg.Duration = 20 * time.Minute
	cfg.Levels = workload.NewLevelMix(nil, 33)
	res := RunSim(cfg)
	if res.Failed != 0 {
		t.Fatalf("%d failures", res.Failed)
	}
	if len(res.Pending) == 0 {
		t.Fatalf("no pending stats")
	}
}
