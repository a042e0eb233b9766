package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// reexecEnv makes the test binary behave as the benchmark command, so the
// smoke run — including the CF workers it spawns — needs no separately
// built binary.
const reexecEnv = "PIXELS_BENCHMARK_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(reexecEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// TestSmoke runs all four workloads once at SF 0.01, one round per client,
// untraced and traced, and checks the contract: every metric BENCHMARK.json
// names is emitted exactly once per workload, with the declared unit, and
// the oracle passes. No wall-clock value is asserted.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }          `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	// The file and the harness's own tables must name the same things.
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].Name)
		}
	}
	declared := map[bool]map[string]string{false: {}, true: {}} // traced → name → unit
	for _, m := range bf.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		if len(defs) != len(declared[traced]) {
			t.Errorf("trace=%v: harness has %d metrics, BENCHMARK.json %d", traced, len(defs), len(declared[traced]))
		}
		for _, d := range defs {
			if declared[traced][d.Name] != d.Unit {
				t.Errorf("metric %s: harness unit %q, BENCHMARK.json %q", d.Name, d.Unit, declared[traced][d.Name])
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q does not match %s", d.Name, nameRE)
			}
		}
	}

	outDir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(os.Args[0], "--workload", w.Name, "--sf", "0.01", "--seconds", "0",
				"--seed", "3", "--trace", trace, "--outdir", outDir)
			cmd.Env = append(os.Environ(), reexecEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.Name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res resultLine
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace,
					res.Correct, res.Attempted, res.Failed, out)
			}
			want := declared[trace == "1"]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics emitted, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			if _, err := os.Stat(outDir + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("%s trace=%s: %v", w.Name, trace, err)
			}
		}
	}
	// Nothing but the span dumps may be left behind.
	left, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range left {
		if !strings.HasPrefix(f.Name(), "trace-") {
			t.Errorf("left behind in outdir: %s", f.Name())
		}
	}
}

// span builds a span tree for tests; times are microseconds.
func span(name string, start, end int64, children ...*obs.SpanData) *obs.SpanData {
	return &obs.SpanData{Name: name, StartUnix: start, DurationUs: end - start, Children: children}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// Two parallel workers under exec with gaps around them: every
	// microsecond of the root goes to exactly one family.
	root := span("query", 0, 100,
		span("plan", 0, 10),
		span("exec:parallel", 20, 70,
			span("worker:0", 20, 60, span("op:scan lineitem", 25, 55)),
			span("worker:1", 20, 40)))
	got := selfTimes(flatten(root))
	want := map[string]float64{
		"plan":          0.010,
		"core.root":     0.040,  // [10,20) and [70,100)
		"engine.exec":   0.010,  // [60,70)
		"engine.worker": 0.0175, // [20,25) both, half of [25,40), [55,60)
		"exec.op_scan":  0.0225, // half of [25,40), all of [40,55)
	}
	sum := 0.0
	for fam, ms := range got {
		sum += ms
		if math.Abs(ms-want[fam]) > 1e-12 {
			t.Errorf("%s self = %v ms, want %v", fam, ms, want[fam])
		}
	}
	if math.Abs(sum-0.1) > 1e-12 || len(got) != len(want) {
		t.Errorf("self times %v sum to %v ms, want the root's 0.1", got, sum)
	}
}

func TestSameRows(t *testing.T) {
	want := [][]string{{"A", "12.500000000001", "7"}}
	if !sameRows([][]string{{"A", "12.5", "7"}}, want) {
		t.Error("float cells within 1e-9 relative must match")
	}
	for _, got := range [][][]string{
		{{"A", "12.6", "7"}}, {{"B", "12.5", "7"}}, {{"A", "12.5"}}, {},
	} {
		if sameRows(got, want) {
			t.Errorf("%v must not match %v", got, want)
		}
	}
}

func TestSpreadOfMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	if got, want := spreadOf([]float64{11, 1, 7, 2, 4}), (9.0-1.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
