// Command benchmark is the performance harness of the serving path: it
// opens the system the way pixels-server does, serves it on loopback HTTP,
// drives one of four named workloads from two closed-loop clients and
// prints end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
// README.md explains the workloads, the metrics and how to compare runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string  // report file runs are appended to
	outDir   string  // scratch: data dirs and trace-<workload>.json
	sf       float64 // 0.5 everywhere except the smoke test
	self     string  // this executable, re-run as the CF worker
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			// A CF worker process: one WorkerRequest on stdin, one
			// WorkerResponse on stdout.
			os.Exit(engine.WorkerMain(os.Stdin, os.Stdout, os.Stderr))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "adhoc_scan | report_join | dashboard_repeat | cf_spill (empty: all four, one process each)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the query literals; the dataset does not depend on it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the clients repeat their round (they finish the round they are in)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (span pass + probe pass)")
	fs.StringVar(&cfg.out, "out", "", "report file to append this run to (input of `benchmark compare`)")
	fs.StringVar(&cfg.outDir, "outdir", "out", "directory for data dirs and trace-<workload>.json")
	fs.Float64Var(&cfg.sf, "sf", 0.5, "TPC-H scale factor; anything but 0.5 is for the smoke test only")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cfg.self = self

	if cfg.workload == "" {
		return runAll(cfg.self, args)
	}
	spec := findWorkload(cfg.workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res, err := runWorkload(context.Background(), spec, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if cfg.out != "" {
		if err := appendRun(cfg.out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	res.print(os.Stdout)
	return 0
}

// runAll runs the four workloads one after the other, each in a process
// of its own so that peak RSS, rusage and the process-wide scan and
// parallelism budgets start clean.
func runAll(self string, args []string) int {
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"--workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. Its JSON form is both a line of a
// report file and (cut down to the contract's four keys) the last line of
// standard output.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	SF         float64                `json:"sf"`
	Host       hostFacts              `json:"host"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Samples    int                    `json:"samples"` // SELECTs behind the latency percentiles
	Violations []string               `json:"violations,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Stages     []stageRow             `json:"stages,omitempty"` // span pass: sums to TracedMeanMs
	TracedMean float64                `json:"traced_mean_ms,omitempty"`
}

type hostFacts struct {
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
}

func host() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// print writes every metric by name with its unit, then the contract's
// result object as the last line.
func (r *runResult) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v attempted=%d failed=%d samples=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Samples)
	for _, name := range names {
		fmt.Fprintf(w, "%-20s %-40s %14.6g %s\n", r.Workload, name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, s := range r.Stages {
		fmt.Fprintf(w, "%-20s stage %-34s %14.6g ms/query\n", r.Workload, s.Stage, s.MeanMs)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "%-20s VIOLATION %s\n", r.Workload, v)
	}
	last, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", last)
}

// report is a file of runs: what `benchmark compare` reads and
// baselines/seed.json holds.
type report struct {
	Runs []*runResult `json:"runs"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func appendRun(path string, res *runResult) error {
	r, err := readReport(path)
	if os.IsNotExist(err) {
		r, err = &report{}, nil
	}
	if err != nil {
		return err
	}
	r.Runs = append(r.Runs, res)
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload is one run: set-up, the untraced window and, with --trace 1,
// the span pass and the probe pass.
func runWorkload(ctx context.Context, spec *workloadSpec, cfg config) (*runResult, error) {
	res := &runResult{Workload: spec.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		SF: cfg.sf, Host: host(), Metrics: map[string]metricValue{}}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The span and probe passes need their share of the run.
		budget /= 2
	}

	e, setup, err := setUp(ctx, spec, cfg)
	if err != nil {
		return nil, err
	}
	w, err := e.drive(ctx, budget, false)
	if err != nil {
		_ = res.release(e)
		return nil, err
	}
	billDiff := e.checkWindow(ctx, w)
	e2e := w.endToEndMetrics(setup)
	selects, _, _ := w.finished()
	res.Samples = len(selects)
	spans := w.samples
	var layer map[string]float64
	if cfg.trace {
		layer = counterMetrics(e, w, billDiff)
	}
	if err := res.release(e, w); err != nil {
		return nil, err
	}

	if !cfg.trace {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
		return res, writeSpans(cfg, spec, spans)
	}

	traced, err := res.spanAndProbePass(ctx, e, cfg, budget/2, e2e["query_p50_ms"], layer)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		v, ok := layer[d.Name]
		if !ok {
			return nil, fmt.Errorf("internal: per-layer metric %s was not computed", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	return res, writeSpans(cfg, spec, append(spans, traced...))
}

// spanAndProbePass opens the system of the finished environment prev once
// more with tracing on, warms it, drives it while fetching every finished
// query's span tree from GET /v1/query/{id}/trace, and then runs the
// probes against it while it is idle. The source-b and source-d metrics
// go into layer; the traced window's client spans are returned.
func (r *runResult) spanAndProbePass(ctx context.Context, prev *env, cfg config, budget time.Duration,
	untracedP50 float64, layer map[string]float64) (spans []*sample, err error) {
	dir, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	te, err := openEnv(prev.spec, dir, cfg, true)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	te.rounds, te.want, te.supplierBase = prev.rounds, prev.want, prev.supplierBase
	var tw *window
	defer func() { err = errors.Join(err, r.release(te, tw)) }()

	if err := te.warmUp(ctx); err != nil {
		return nil, err
	}
	if tw, err = te.drive(ctx, budget, true); err != nil {
		return nil, err
	}
	te.checkWindow(ctx, tw)
	pass := analyse(tw.samples)
	if c := pass.closure(); c > 0.01 {
		te.violate("stage table misses the traced end-to-end mean by %.2f %%", 100*c)
	}
	r.Stages, r.TracedMean = pass.stages, pass.meanE2EMs
	for name, v := range spanMetrics(pass, untracedP50) {
		layer[name] = v
	}
	probed, err := probes(ctx, te, cfg)
	if err != nil {
		return nil, err
	}
	for name, v := range probed {
		layer[name] = v
	}
	return tw.samples, nil
}

// release closes an environment, removes its DataDir and folds its
// windows and oracle violations into the result: a failed op and a broken
// oracle rule each count as one failure.
func (r *runResult) release(e *env, windows ...*window) error {
	err := errors.Join(e.close(), os.RemoveAll(e.dir))
	for _, w := range windows {
		if w == nil {
			continue
		}
		r.Attempted += len(w.samples)
		for _, s := range w.samples {
			if s.Err == "" {
				continue
			}
			r.Failed++
			if len(r.Violations) < 20 {
				r.Violations = append(r.Violations, fmt.Sprintf("%s %s: %s", s.Name, s.QueryID, s.Err))
			}
		}
	}
	r.Violations = append(r.Violations, e.violations...)
	r.Failed += len(e.violations)
	r.Correct = r.Failed == 0
	return err
}

// writeSpans dumps every benchmark-side span of the run.
func writeSpans(cfg config, spec *workloadSpec, spans []*sample) error {
	data, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Spans    []*sample `json:"spans"`
	}{spec.Name, cfg.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+spec.Name+".json"), data, 0o644)
}
