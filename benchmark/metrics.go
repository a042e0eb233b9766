package main

import (
	"math"
	"sort"
)

// metricDef names one metric the harness emits. BENCHMARK.json lists the
// same names (benchmark_test.go holds the two in step); the extra fields
// here are the catalogue ISSUE 11 asks for and README.md documents.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  string // module the number belongs to ("" for end-to-end)
	Source string // a client spans · b server spans · c counters · d probes
	Moves  string // end-to-end metric @ workload the layer metric should move
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. failed_frac from the issue is the attempted/failed pair
// of the result line: the contract forbids metrics whose expected value
// is 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput_qps", Unit: "ops/s", Better: "higher"},
	{Name: "cpu_s_per_query", Unit: "s", Better: "lower"},
	{Name: "billed_mb_per_query", Unit: "MB", Better: "lower"},
	{Name: "rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the 72 single-layer metrics a --trace 1 run prints: the 71
// of the issue plus proc.peak_rss_mb, which the contract's spread rule
// keeps out of the end-to-end set (see rssEvery).
var perLayer = []metricDef{
	{"server.submit_ms_p50", "ms", "lower", "server", "a", "query_p50_ms, throughput_qps @ dashboard_repeat"},
	{"server.result_ms_p50", "ms", "lower", "server", "a", "query_p50_ms, throughput_qps @ dashboard_repeat"},
	{"server.result_kb_per_query", "KB", "lower", "server", "a", "query_p50_ms @ adhoc_scan"},
	{"server.status_polls_per_query", "count", "lower", "server", "a", "cpu_s_per_query @ all"},
	{"server.unattributed_ms_p50", "ms", "lower", "server", "a-b", "query_p50_ms @ dashboard_repeat"},
	{"server.query_p99_ms", "ms", "lower", "server", "a", "informational @ dashboard_repeat"},

	{"admission.queue_wait_ms_p50", "ms", "lower", "admission", "b", "query_p90_ms @ dashboard_repeat"},
	{"admission.queue_wait_ms_p90", "ms", "lower", "admission", "b", "query_p90_ms @ dashboard_repeat"},
	{"admission.shed_count", "count", "lower", "admission", "c", "failed @ all (must be 0)"},
	{"admission.submit_us_op", "us", "lower", "admission", "d", "query_p50_ms @ dashboard_repeat"},

	{"sql.parse_us_op", "us", "lower", "sql", "d", "query_p50_ms, cpu_s_per_query @ dashboard_repeat"},
	{"sql.parse_allocs_op", "count", "lower", "sql", "d", "cpu_s_per_query @ dashboard_repeat"},

	{"plan.span_ms_p50", "ms", "lower", "plan", "b", "query_p50_ms, cpu_s_per_query @ dashboard_repeat"},
	{"plan.bind_optimize_us_op", "us", "lower", "plan", "d", "query_p50_ms, cpu_s_per_query @ dashboard_repeat"},

	{"qcache.plan_hit_ratio", "ratio", "higher", "qcache", "c", "query_p50_ms @ dashboard_repeat; none elsewhere"},
	{"qcache.result_hit_ratio", "ratio", "higher", "qcache", "c", "query_p50_ms, billed_mb_per_query @ dashboard_repeat"},
	{"qcache.result_evictions", "count", "lower", "qcache", "c", "billed_mb_per_query @ dashboard_repeat"},
	{"qcache.plan_invalidations", "count", "lower", "qcache", "c", "query_p90_ms @ dashboard_repeat"},
	{"qcache.plan_hit_us_op", "us", "lower", "qcache", "d", "query_p50_ms @ dashboard_repeat"},
	{"qcache.result_get_us_op", "us", "lower", "qcache", "d", "query_p50_ms @ dashboard_repeat"},

	{"core.pending_ms_p50", "ms", "lower", "core", "c", "query_p50_ms @ dashboard_repeat, cf_spill"},
	{"core.cf_routed_frac", "ratio", "lower", "core", "c", "1 @ cf_spill, 0 elsewhere (oracle)"},
	{"core.root_self_ms_p50", "ms", "lower", "core", "b", "query_p50_ms @ dashboard_repeat, cf_spill"},

	{"engine.exec_ms_p50", "ms", "lower", "engine", "b", "query_p50_ms @ adhoc_scan, report_join"},
	{"engine.rows_scanned_per_query", "count", "lower", "engine", "c", "cpu_s_per_query @ adhoc_scan"},
	{"engine.rowgroups_pruned_frac", "ratio", "higher", "engine", "c", "billed_mb_per_query @ adhoc_scan"},
	{"engine.chunks_skipped_per_query", "count", "higher", "engine", "c", "billed_mb_per_query @ adhoc_scan"},
	{"engine.parallel_speedup", "ratio", "higher", "engine", "d", "query_p50_ms @ report_join"},
	{"engine.join_build_ms_p50", "ms", "lower", "engine", "b", "query_p50_ms @ report_join"},
	{"engine.merge_ms_p50", "ms", "lower", "engine", "b", "query_p50_ms @ report_join, cf_spill"},
	{"engine.split_us_op", "us", "lower", "engine", "d", "query_p50_ms @ cf_spill"},
	{"engine.wire_encode_us_op", "us", "lower", "engine", "d", "query_p50_ms, cpu_s_per_query @ cf_spill"},
	{"engine.wire_decode_us_op", "us", "lower", "engine", "d", "query_p50_ms, cpu_s_per_query @ cf_spill"},
	{"engine.wire_kb_per_task", "KB", "lower", "engine", "d", "query_p50_ms @ cf_spill"},
	{"engine.spawn_ms_p50", "ms", "lower", "engine", "d", "query_p50_ms, throughput_qps @ cf_spill"},
	{"engine.task_ms_p50", "ms", "lower", "engine", "b", "query_p50_ms, query_p90_ms @ cf_spill"},
	{"engine.fragment_ms_p50", "ms", "lower", "engine", "b", "cpu_s_per_query @ cf_spill"},
	{"engine.attempts_per_task", "ratio", "lower", "engine", "b", "query_p90_ms @ cf_spill"},
	{"engine.interm_kb_per_query", "KB", "lower", "engine", "c", "query_p50_ms @ cf_spill"},
	{"engine.insert_ms_p50", "ms", "lower", "engine", "a", "throughput_qps @ dashboard_repeat"},

	{"exec.op_scan_self_ms", "ms", "lower", "exec", "b", "query_p50_ms, cpu_s_per_query @ adhoc_scan, report_join"},
	{"exec.op_filter_self_ms", "ms", "lower", "exec", "b", "query_p50_ms @ report_join"},
	{"exec.op_project_self_ms", "ms", "lower", "exec", "b", "query_p50_ms @ report_join"},
	{"exec.op_join_self_ms", "ms", "lower", "exec", "b", "query_p50_ms, cpu_s_per_query @ report_join"},
	{"exec.op_agg_self_ms", "ms", "lower", "exec", "b", "query_p50_ms, cpu_s_per_query @ report_join"},
	{"exec.op_sort_self_ms", "ms", "lower", "exec", "b", "query_p50_ms @ report_join"},
	{"exec.op_topn_self_ms", "ms", "lower", "exec", "b", "query_p50_ms @ report_join"},

	{"vec.filter_ns_row", "ns", "lower", "vec", "d", "query_p50_ms @ adhoc_scan"},
	{"vec.filter_dict_ns_row", "ns", "lower", "vec", "d", "query_p50_ms @ adhoc_scan"},

	{"pixfile.open_us_op", "us", "lower", "pixfile", "d", "query_p50_ms @ adhoc_scan"},
	{"pixfile.decode_mb_s", "MB/s", "higher", "pixfile", "d", "query_p50_ms, cpu_s_per_query @ adhoc_scan"},
	{"pixfile.decode_ns_row", "ns", "lower", "pixfile", "d", "query_p50_ms, cpu_s_per_query @ adhoc_scan"},
	{"pixfile.seldecode_ns_row", "ns", "lower", "pixfile", "d", "query_p50_ms @ adhoc_scan"},

	{"objstore.gets_per_query", "count", "lower", "objstore", "c", "query_p50_ms, throughput_qps @ adhoc_scan, cf_spill"},
	{"objstore.mb_returned_per_query", "MB", "lower", "objstore", "c", "query_p50_ms @ adhoc_scan, cf_spill"},
	{"objstore.puts_per_query", "count", "lower", "objstore", "c", "query_p50_ms @ cf_spill"},
	{"objstore.disk_getrange_64k_us", "us", "lower", "objstore", "d", "query_p50_ms, throughput_qps @ adhoc_scan, cf_spill"},
	{"objstore.disk_read_amplification", "ratio", "lower", "objstore", "d", "query_p50_ms, cpu_s_per_query @ adhoc_scan"},
	{"objstore.disk_put_ms_op", "ms", "lower", "objstore", "d", "query_p50_ms @ cf_spill"},
	{"objstore.disk_list_ms_op", "ms", "lower", "objstore", "d", "query_p50_ms @ cf_spill"},

	{"objstore.cache.hit_ratio", "ratio", "higher", "objstore.cache", "c", "query_p50_ms @ report_join"},
	{"objstore.cache.evictions", "count", "lower", "objstore.cache", "c", "query_p50_ms @ report_join"},
	{"objstore.cache.prefetch_wasted", "count", "lower", "objstore.cache", "c", "cpu_s_per_query @ report_join"},
	{"objstore.cache.hit_us_op", "us", "lower", "objstore.cache", "d", "query_p50_ms @ report_join"},

	{"billing.ledger_vs_result_bytes_diff", "B", "lower", "billing", "c", "billed_mb_per_query @ all (must be 0)"},
	{"billing.list_usd_per_1k_queries", "USD", "lower", "billing", "c", "billed_mb_per_query @ all"},

	{"nl2sql.translate_ms_p50", "ms", "lower", "nl2sql", "a", "none (keeps the NL path measured)"},

	{"obs.trace_overhead_frac", "ratio", "lower", "obs", "a", "guards the span pass itself"},

	{"proc.alloc_mb_per_query", "MB", "lower", "proc", "c", "cpu_s_per_query, rss_mb @ all"},
	{"proc.peak_rss_mb", "MB", "lower", "proc", "c", "rss_mb @ all (VmHWM, set-up included)"},
	{"proc.gc_pause_ms_total", "ms", "lower", "proc", "c", "query_p90_ms @ all"},
	{"proc.child_cpu_frac", "ratio", "lower", "proc", "c", "cpu_s_per_query @ cf_spill"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
