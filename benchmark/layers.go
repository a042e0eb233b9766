package main

// counterMetrics derives the source-a and source-c per-layer metrics of
// the untraced window: client spans, and deltas of the counters the
// system exposes (DB.StoreUsage, DB.CacheStats, /v1/cache, /v1/admission,
// result payloads, finished queries' stats, the ledger, the Go runtime).
func counterMetrics(e *env, w *window, billDiff int64) map[string]float64 {
	selects, inserts, _ := w.finished()
	nq := float64(len(selects))
	done := nq + float64(len(inserts))
	m := map[string]float64{}

	var submit, result, lat, insertMs []float64
	var polls, resultBytes, cf float64
	ids := map[string]bool{}
	for _, s := range selects {
		submit = append(submit, float64(s.SubmitEnd-s.Start)/1000)
		result = append(result, float64(s.End-s.DoneSeen)/1000)
		lat = append(lat, s.latencyMs())
		polls += float64(s.Polls)
		resultBytes += float64(s.ResultBytes)
		if s.UsedCF {
			cf++
		}
		ids[s.QueryID] = true
	}
	for _, s := range inserts {
		insertMs = append(insertMs, s.latencyMs())
	}
	m["server.submit_ms_p50"] = quantile(submit, 0.5)
	m["server.result_ms_p50"] = quantile(result, 0.5)
	m["server.result_kb_per_query"] = ratio(resultBytes/1e3, nq)
	m["server.status_polls_per_query"] = ratio(polls, nq)
	m["server.query_p99_ms"] = quantile(lat, 0.99)
	m["engine.insert_ms_p50"] = quantile(insertMs, 0.5)
	m["core.cf_routed_frac"] = ratio(cf, nq)

	m["admission.shed_count"] = float64(w.shed())

	delta := func(after, before uint64) float64 { return float64(after - before) }
	p0, p1 := w.before.qcache.Plan, w.after.qcache.Plan
	r0, r1 := w.before.qcache.Result, w.after.qcache.Result
	planHits, resultHits := delta(p1.Hits, p0.Hits), delta(r1.Hits, r0.Hits)
	m["qcache.plan_hit_ratio"] = ratio(planHits, planHits+delta(p1.Misses, p0.Misses))
	m["qcache.result_hit_ratio"] = ratio(resultHits, resultHits+delta(r1.Misses, r0.Misses))
	m["qcache.result_evictions"] = delta(r1.Evictions, r0.Evictions)
	m["qcache.plan_invalidations"] = delta(p1.Invalidations, p0.Invalidations)

	// Finished queries keep their engine stats; the ledger keeps the bill.
	var rows, read, pruned, skipped, interm float64
	for _, q := range e.db.Coordinator().Queries() {
		if res := q.Result(); ids[q.ID] && res != nil {
			st := res.Stats
			if res.Origin != nil {
				continue // a result-cache hit scanned nothing
			}
			rows += float64(st.RowsScanned)
			read += float64(st.RowGroupsRead)
			pruned += float64(st.RowGroupsPruned)
			skipped += float64(st.ColumnChunksSkipped)
			interm += float64(st.BytesIntermediate)
		}
	}
	m["engine.rows_scanned_per_query"] = ratio(rows, nq)
	m["engine.rowgroups_pruned_frac"] = ratio(pruned, pruned+read)
	m["engine.chunks_skipped_per_query"] = ratio(skipped, nq)
	m["engine.interm_kb_per_query"] = ratio(interm/1e3, nq)

	var pending []float64
	var usd float64
	for _, b := range e.db.Ledger().All() {
		if ids[b.QueryID] {
			pending = append(pending, float64(b.PendingTime().Microseconds())/1000)
			usd += b.ListPrice
		}
	}
	m["core.pending_ms_p50"] = quantile(pending, 0.5)
	m["billing.ledger_vs_result_bytes_diff"] = float64(billDiff)
	m["billing.list_usd_per_1k_queries"] = ratio(usd*1000, nq)

	// The coordinator's store only: CF worker processes open the DataDir
	// themselves and their requests are not metered here.
	store := w.after.store.Sub(w.before.store)
	m["objstore.gets_per_query"] = ratio(float64(store.Gets), nq)
	m["objstore.mb_returned_per_query"] = ratio(float64(store.BytesRead)/1e6, nq)
	m["objstore.puts_per_query"] = ratio(float64(store.Puts), nq)
	c0, c1 := w.before.cache, w.after.cache
	hits := float64(c1.Hits - c0.Hits)
	m["objstore.cache.hit_ratio"] = ratio(hits, hits+float64(c1.Misses-c0.Misses))
	m["objstore.cache.evictions"] = float64(c1.Evictions - c0.Evictions)
	m["objstore.cache.prefetch_wasted"] = float64(c1.PrefetchWasted - c0.PrefetchWasted)

	m["proc.alloc_mb_per_query"] = ratio(delta(w.after.mem.TotalAlloc, w.before.mem.TotalAlloc)/1e6, done)
	m["proc.gc_pause_ms_total"] = delta(w.after.mem.PauseTotalNs, w.before.mem.PauseTotalNs) / 1e6
	m["proc.peak_rss_mb"] = procStatusMB("VmHWM:")
	m["proc.child_cpu_frac"] = ratio(w.cpuKids.Seconds(), (w.cpuSelf + w.cpuKids).Seconds())
	return m
}

// spanMetrics derives the source-b per-layer metrics from the span pass.
// untracedP50 is query_p50_ms of the untraced window of the same run.
func spanMetrics(p *spanPass, untracedP50 float64) map[string]float64 {
	p50 := func(fam string) float64 { return quantile(p.durations[fam], 0.5) }
	m := map[string]float64{
		"server.unattributed_ms_p50":  quantile(p.unattrib, 0.5),
		"admission.queue_wait_ms_p50": p50("admission.queue"),
		"admission.queue_wait_ms_p90": quantile(p.durations["admission.queue"], 0.9),
		"plan.span_ms_p50":            p50("plan"),
		"core.root_self_ms_p50":       quantile(p.rootSelf, 0.5),
		"engine.exec_ms_p50":          p50("engine.exec"),
		"engine.join_build_ms_p50":    p50("engine.join_build"),
		"engine.merge_ms_p50":         p50("engine.merge"),
		"engine.task_ms_p50":          p50("engine.task"),
		"engine.fragment_ms_p50":      p50("engine.fragment"),
		"engine.attempts_per_task":    ratio(float64(p.taskSpans), float64(p.tasks)),
		"obs.trace_overhead_frac":     ratio(quantile(p.latencies, 0.5), untracedP50) - 1,
	}
	for _, op := range []string{"scan", "filter", "project", "join", "agg", "sort", "topn"} {
		m["exec.op_"+op+"_self_ms"] = p.selfMean["exec.op_"+op]
	}
	return m
}
