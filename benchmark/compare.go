package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: the bound by
// which each end-to-end metric may worsen.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadOf is the distance between the first and third quartile as a share
// of the median: the run-to-run noise of one side. The quartiles are those
// of Python's statistics.quantiles(xs, n=4), which the driver uses.
func spreadOf(xs []float64) float64 {
	n := len(xs)
	med := quantile(xs, 0.5)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// compareMain implements `benchmark compare A.json B.json`: one row per
// workload and end-to-end metric with both medians, the ratio with its
// base, and a verdict. Like the driver it does not hold setup_s to its
// spread. It exits 1 when B is worse than A anywhere.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "../BENCHMARK.json", "BENCHMARK.json holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--bench BENCHMARK.json] A.json B.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	data, err := os.ReadFile(*bench)
	if err != nil {
		return fail(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fail(fmt.Errorf("%s: %w", *bench, err))
	}
	a, err := readReport(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := readReport(fs.Arg(1))
	if err != nil {
		return fail(err)
	}

	// values[side][workload][metric] are the untraced runs' values.
	type side struct {
		values            map[string]map[string][]float64
		attempted, failed map[string]int
	}
	collect := func(r *report) side {
		s := side{map[string]map[string][]float64{}, map[string]int{}, map[string]int{}}
		for _, run := range r.Runs {
			s.attempted[run.Workload] += run.Attempted
			s.failed[run.Workload] += run.Failed
			if run.Trace {
				continue
			}
			if s.values[run.Workload] == nil {
				s.values[run.Workload] = map[string][]float64{}
			}
			for name, v := range run.Metrics {
				s.values[run.Workload][name] = append(s.values[run.Workload][name], v.Value)
			}
		}
		return s
	}
	sa, sb := collect(a), collect(b)
	var names []string
	for w := range sa.values {
		if sb.values[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)

	worse := false
	fmt.Printf("%-17s %-20s %12s %12s %-28s %7s %7s  %s\n",
		"workload", "metric", "A (median)", "B (median)", "B/A", "spreadA", "spreadB", "verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			xa, xb := sa.values[w][m.Name], sb.values[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := quantile(xa, 0.5), quantile(xb, 0.5)
			spa, spb := spreadOf(xa), spreadOf(xb)
			// change > 0 means B is worse, whatever the metric's direction.
			change := ratio(mb, ma) - 1
			if m.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case m.Name != "setup_s" && (spa > m.Bound || spb > m.Bound):
				verdict = "unresolved"
			case change > m.Bound:
				verdict, worse = "worse", true
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-17s %-20s %12.6g %12.6g %-28s %6.1f%% %6.1f%%  %s\n", w, m.Name, ma, mb,
				fmt.Sprintf("%.3f (base %.6g %s)", ratio(mb, ma), ma, m.Unit), 100*spa, 100*spb, verdict)
		}
		fa, fb := ratio(float64(sa.failed[w]), float64(sa.attempted[w])), ratio(float64(sb.failed[w]), float64(sb.attempted[w]))
		verdict := "same"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Printf("%-17s %-20s %12.6g %12.6g %-28s %7s %7s  %s\n", w, "failed_frac", fa, fb,
			fmt.Sprintf("%d/%d vs %d/%d", sa.failed[w], sa.attempted[w], sb.failed[w], sb.attempted[w]), "", "", verdict)
	}
	if worse {
		return 1
	}
	return 0
}
