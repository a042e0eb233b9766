package obs

// Well-known instruments on the Default registry. Layers record into
// these directly; the server's /metrics handler additionally sets
// point-in-time gauges, and raises the cache counters to their components'
// running totals, from component snapshots at scrape time.
var (
	// Query lifecycle (recorded by core at finalize).
	QueriesTotal = Default.NewCounter("pixels_queries_total",
		"Queries finished, by service tier and terminal status.", "tier", "status")
	QueryExecSeconds = Default.NewHistogram("pixels_query_exec_seconds",
		"Wall-clock execution time per query (excludes queue wait).", nil, "tier")
	QueryPendingSeconds = Default.NewHistogram("pixels_query_pending_seconds",
		"Time from arrival to execution start per query, observed when it starts.", nil, "tier")
	QueryPlacementsTotal = Default.NewCounter("pixels_query_placements_total",
		"Queries started, by service tier and what the scheduler placed them on (vm, cf or cache).", "tier", "placement")
	BilledBytesTotal = Default.NewCounter("pixels_billed_bytes_total",
		"Bytes billed as scanned, by service tier.", "tier")

	// The scheduler's tier queues (sheds recorded by the queues; depth and
	// slot gauges are snapshot-sourced at scrape time).
	AdmissionShedTotal = Default.NewCounter("pixels_admission_shed_total",
		"Submissions shed by the scheduler's queues, by tier and reason.", "tier", "reason")
	AdmissionQueueDepth = Default.NewGauge("pixels_admission_queue_depth",
		"Queries currently queued, by tier.", "tier")
	AdmissionRunning = Default.NewGauge("pixels_admission_running",
		"Queries currently executing on a VM slot or CF, by tier.", "tier")
	SlotPoolSize = Default.NewGauge("pixels_slot_pool_size",
		"VM slots on ready VMs.")
	SlotPoolBusy = Default.NewGauge("pixels_slot_pool_busy",
		"VM slots currently leased.")

	// Query cache (snapshot-sourced).
	PlanCacheHits = Default.NewCounter("pixels_plan_cache_hits_total",
		"Plan cache hits since process start.")
	PlanCacheMisses = Default.NewCounter("pixels_plan_cache_misses_total",
		"Plan cache misses since process start.")
	ResultCacheHits = Default.NewCounter("pixels_result_cache_hits_total",
		"Result cache hits since process start.")
	ResultCacheMisses = Default.NewCounter("pixels_result_cache_misses_total",
		"Result cache misses since process start.")
	ResultCacheEvictions = Default.NewCounter("pixels_result_cache_evictions_total",
		"Result cache evictions since process start.")
	ResultCacheBytes = Default.NewGauge("pixels_result_cache_bytes",
		"Bytes currently held by the result cache.")

	// Object-store read cache (snapshot-sourced).
	ObjstoreCacheHitRatio = Default.NewGauge("pixels_objstore_cache_hit_ratio",
		"Object-store read cache hit ratio since process start.")
	ObjstoreCacheHits = Default.NewCounter("pixels_objstore_cache_hits_total",
		"Object-store read cache block hits since process start.")
	ObjstoreCacheMisses = Default.NewCounter("pixels_objstore_cache_misses_total",
		"Object-store read cache block misses since process start.")
	ObjstoreCacheServedBytes = Default.NewGauge("pixels_objstore_cache_served_bytes",
		"Bytes served from the object-store read cache since process start.")

	// CF execution (recorded by the scheduler's CF supervisor).
	DistTaskRetriesTotal = Default.NewCounter("pixels_dist_task_retries_total",
		"CF worker task attempts retried after failure.")
)
