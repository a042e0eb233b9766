package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// flatSpan is one server span out of a query's tree, clamped to the root
// interval (worker processes stamp their own clock readings).
type flatSpan struct {
	name       string
	start, end int64 // unix µs
	parent     int   // index into the flat slice; -1 for the root
}

func flatten(root *obs.SpanData) []flatSpan {
	lo, hi := root.StartUnix, root.StartUnix+root.DurationUs
	var out []flatSpan
	var walk func(d *obs.SpanData, parent int)
	walk = func(d *obs.SpanData, parent int) {
		s := flatSpan{name: d.Name, start: d.StartUnix, end: d.StartUnix + d.DurationUs, parent: parent}
		s.start = min(max(s.start, lo), hi)
		s.end = min(max(s.end, s.start), hi)
		out = append(out, s)
		me := len(out) - 1
		for _, c := range d.Children {
			walk(c, me)
		}
	}
	walk(root, -1)
	return out
}

// family maps a span name to the stage-table row (and layer) it belongs to.
func family(name string) string {
	switch {
	case name == "query":
		return "core.root"
	case name == "plan":
		return "plan"
	case name == "admission-queue":
		return "admission.queue"
	case strings.HasPrefix(name, "exec:"):
		return "engine.exec"
	case name == "join-build":
		return "engine.join_build"
	case name == "merge":
		return "engine.merge"
	case strings.HasPrefix(name, "worker:"):
		return "engine.worker"
	case strings.HasPrefix(name, "cf-task:"):
		return "engine.task"
	case strings.HasPrefix(name, "fragment:"):
		return "engine.fragment"
	case strings.HasPrefix(name, "op:scan"):
		return "exec.op_scan"
	case strings.HasPrefix(name, "op:"):
		return "exec.op_" + strings.TrimPrefix(name, "op:")
	default:
		return "other." + name
	}
}

// selfTimes attributes every microsecond of the root interval to exactly
// one span family: to the deepest span active at that instant, split
// evenly when several are (parallel workers, concurrent CF tasks). For a
// serial tree this is the textbook self time — a span's duration minus
// the union of its children — and in every case the shares add up to the
// root's duration, which is what lets the stage table close.
func selfTimes(spans []flatSpan) map[string]float64 {
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.start, s.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]float64{}
	covered := make([]bool, len(spans)) // has a child active in the interval
	var leaves []int
	for i := 1; i < len(cuts); i++ {
		t0, t1 := cuts[i-1], cuts[i]
		if t1 == t0 {
			continue
		}
		for j := range covered {
			covered[j] = false
		}
		for _, s := range spans {
			if s.parent >= 0 && s.start <= t0 && s.end >= t1 {
				covered[s.parent] = true
			}
		}
		leaves = leaves[:0]
		for j, s := range spans {
			if !covered[j] && s.start <= t0 && s.end >= t1 {
				leaves = append(leaves, j)
			}
		}
		share := float64(t1-t0) / 1000 / float64(len(leaves))
		for _, j := range leaves {
			out[family(spans[j].name)] += share
		}
	}
	return out
}

// stageRow is one line of a workload's stage table.
type stageRow struct {
	Stage  string  `json:"stage"`
	MeanMs float64 `json:"mean_ms_per_query"`
}

// spanPass is what the traced window yields.
type spanPass struct {
	stages    []stageRow         // self time per family, then "server.unattributed"; sums to meanE2EMs
	meanE2EMs float64            // mean client latency of the traced queries
	selfMean  map[string]float64 // family → mean self ms per query
	durations map[string][]float64
	unattrib  []float64 // client latency − root span, per query
	rootSelf  []float64
	tasks     int // distinct (query, task)
	taskSpans int // cf-task spans, one per attempt
	latencies []float64
}

// analyse folds the traced window's span trees into per-family numbers.
func analyse(samples []*sample) *spanPass {
	p := &spanPass{selfMean: map[string]float64{}, durations: map[string][]float64{}}
	n := 0.0
	for _, s := range samples {
		if s.Err != "" || s.trace == nil {
			continue
		}
		n++
		lat := s.latencyMs()
		p.latencies = append(p.latencies, lat)
		p.unattrib = append(p.unattrib, lat-float64(s.trace.DurationUs)/1000)
		spans := flatten(s.trace)
		self := selfTimes(spans)
		p.rootSelf = append(p.rootSelf, self["core.root"])
		for fam, ms := range self {
			p.selfMean[fam] += ms
		}
		seenTask := map[string]bool{}
		for _, sp := range spans {
			fam := family(sp.name)
			p.durations[fam] = append(p.durations[fam], float64(sp.end-sp.start)/1000)
			if fam == "engine.task" {
				p.taskSpans++
				task, _, _ := strings.Cut(sp.name, ".a")
				if !seenTask[task] {
					seenTask[task] = true
					p.tasks++
				}
			}
		}
	}
	if n == 0 {
		return p
	}
	fams := make([]string, 0, len(p.selfMean))
	for fam := range p.selfMean {
		p.selfMean[fam] /= n
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		p.stages = append(p.stages, stageRow{fam, p.selfMean[fam]})
	}
	p.stages = append(p.stages, stageRow{"server.unattributed", mean(p.unattrib)})
	p.meanE2EMs = mean(p.latencies)
	return p
}

// closure is how far the stage table's sum is from the traced end-to-end
// mean, as a share of it.
func (p *spanPass) closure() float64 {
	sum := 0.0
	for _, r := range p.stages {
		sum += r.MeanMs
	}
	if p.meanE2EMs == 0 {
		return 0
	}
	return math.Abs(sum/p.meanE2EMs - 1)
}
