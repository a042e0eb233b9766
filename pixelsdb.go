// Package pixelsdb is the embedded public API of the PixelsDB
// reproduction: a serverless, NL-aided analytic database with flexible
// service levels and prices.
//
// A DB bundles the whole system: the columnar query engine over an object
// store, the Pixels-Turbo coordinator scheduling queries at three service
// levels (Immediate, Relaxed, Best-of-effort) across a simulated VM
// cluster and cloud-function service, the autoscaler, the billing ledger,
// and the pluggable text-to-SQL service.
//
// Quickstart:
//
//	db, _ := pixelsdb.Open(pixelsdb.Options{})
//	defer db.Close()
//	_ = db.LoadSampleData("tpch", 0.01)
//	q, _ := db.Submit("tpch", "SELECT COUNT(*) FROM orders", pixelsdb.Relaxed)
//	<-q.Done()
//	res := q.Result()
package pixelsdb

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/admission"
	"repro/internal/autoscale"
	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/cfsim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/nl2sql"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/rover"
	"repro/internal/server"
	"repro/internal/vclock"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// Service levels, re-exported for callers.
const (
	Immediate  = billing.Immediate
	Relaxed    = billing.Relaxed
	BestEffort = billing.BestEffort
)

// Level is a query's service level.
type Level = billing.Level

// Result is a materialized query result.
type Result = engine.Result

// Query is a scheduled query handle.
type Query = core.Query

// Options configure Open.
type Options struct {
	// DataDir persists tables and catalog on disk; empty keeps everything
	// in memory.
	DataDir string
	// InitialVMs is the warm cluster size (default 2).
	InitialVMs int
	// GracePeriod bounds Relaxed pending time (default 5 minutes).
	GracePeriod time.Duration
	// CacheSize enables the object-store read cache in front of every
	// engine read (internal/objstore/cache): a block LRU of this many
	// bytes with single-flight fetches, plus each file's Head info and
	// parsed footer. 0 disables the cache — every read pays a store
	// request, the paper's baseline. Billed bytes-scanned are identical
	// either way.
	CacheSize int64
	// CFExecution selects how cloud-function worker fragments execute when
	// the scheduler routes a query to the CF tier:
	//
	//	"" or "inprocess" — engine.LocalInvoker: each worker task is the
	//	same serialized WorkerRequest and object-store shuffle as below,
	//	executed on a goroutine against the coordinator's store (the
	//	default; fastest for an embedded DB).
	//	"process"         — engine.ProcessInvoker: each worker task runs in
	//	a pixels-worker OS process, so the request crosses a real process
	//	boundary exactly like a real FaaS tier. Like warm function
	//	instances, the processes are kept and reused, one task at a time;
	//	a worker that failed or whose attempt was cancelled is never reused,
	//	workers idle for 10 minutes are reaped, and Close reaps the rest.
	//	Requires DataDir (processes cannot share an in-memory store).
	//
	// Results, statistics and billed bytes-scanned are identical across
	// modes; the coordinator retries failed worker attempts in either.
	CFExecution string
	// CFWorkerCmd is the worker command for CFExecution "process"
	// (default: "pixels-worker", resolved via PATH).
	CFWorkerCmd []string
	// PlanCache enables the normalized plan cache (internal/qcache level
	// 1): SELECT submissions are normalized (whitespace/case/keyword
	// canonicalization, literals parameterized) and repeats reuse the
	// cached bound plan, skipping parse+bind+plan. Plans are re-validated
	// against catalog table generations on every hit, so DDL/INSERT
	// invalidates immediately. Default off to preserve the paper's
	// calibration.
	PlanCache bool
	// ResultCacheMB enables the result cache (internal/qcache level 2): a
	// byte-budgeted LRU of materialized results keyed on the plan-cache key
	// + referenced-table generations, consulted by the coordinator before
	// any execution tier with single-flight fills. A hit returns stored
	// rows without touching the object store and bills zero bytes
	// scanned, and identical in-flight queries share one execution (the
	// waiters settle as hits). 0 disables (the default): every submission
	// then executes and is billed itself.
	ResultCacheMB int
	// Admission overrides the bounds of the scheduler's tier queues: queue
	// caps, bounded waits and default completion deadlines (a Relaxed
	// query's bounded wait is always GracePeriod). Nil and a zero-valued
	// Config both mean the built-in bounds. Every submission — Submit here,
	// POST /v1/query on the Handler — waits in those queues when it cannot
	// start at once, earliest deadline first within a tier and with strict
	// priority across tiers, and is shed under overload (cheap tier first;
	// 429 + Retry-After over REST, a handle whose Status is "shed" here).
	Admission *admission.Config
	// Tracing enables per-query span tracing: every submission
	// carries an obs.Trace from submit through planning, queueing and
	// execution (per-operator, per-worker and per-attempt spans), and
	// the last 256 finished traces are retained in an LRU served by
	// GET /v1/query/{id}/trace. Off by default: the disabled path costs
	// a nil check per instrumentation point, and results, stats and
	// billed bytes are bit-identical either way.
	Tracing bool
	// SlowQueryThreshold logs any query whose submit-to-finish time
	// meets the threshold (one line: id, tier, pending/exec split,
	// bytes, SQL). 0 disables the slow-query log.
	SlowQueryThreshold time.Duration
	// Metrics mounts GET /metrics (Prometheus text format) on the REST
	// handler: query/latency/billing instruments, queue depths,
	// cache counters. The registry records regardless; this only gates
	// the scrape route.
	Metrics bool
	// Pprof mounts net/http/pprof under /debug/pprof/ on the REST
	// handler (opt-in; never on by default).
	Pprof bool
	// Autoscale enables the scaling manager (target-utilization policy
	// with lazy scale-in) at the given interval; zero disables it.
	AutoscaleInterval time.Duration
	// MinVMs/MaxVMs bound the autoscaler (defaults 0/16).
	MinVMs, MaxVMs int
	// VM and CF override the simulator configs. CF.MaxConcurrency is the CF
	// tier's concurrency ceiling: an Immediate query spills to CF only while
	// one more job fits under it. CF.{ColdStart,WarmStart,WarmIdleTTL} are
	// simulation-only: a served CF query's start-up is real, never slept.
	VM vmsim.Config
	CF cfsim.Config
	// Translator overrides the text-to-SQL service (default the template
	// semantic parser).
	Translator nl2sql.Translator
	// Seed drives all randomness (failure injection, sample data).
	Seed int64
}

// DB is an open PixelsDB instance.
type DB struct {
	opts    Options
	clock   vclock.Clock
	store   *objstore.Metered
	cache   *cache.CachingStore // nil when Options.CacheSize == 0
	catalog *catalog.Catalog
	engine  *engine.Engine
	cluster *vmsim.Cluster
	coord   *core.Coordinator
	ledger  *billing.Ledger
	scaler  *autoscale.Manager
	xlator  nl2sql.Translator
	qcache  *qcache.Cache          // plans every submission; caches only when PlanCache/ResultCacheMB say so
	traces  *obs.TraceStore        // nil unless Tracing enabled
	workers *engine.ProcessInvoker // nil unless CFExecution is "process"
}

// Open builds the full system.
func Open(opts Options) (*DB, error) {
	if opts.InitialVMs <= 0 {
		opts.InitialVMs = 2
	}
	if opts.MaxVMs <= 0 {
		opts.MaxVMs = 16
	}
	var backing objstore.Store
	if opts.DataDir != "" {
		disk, err := objstore.NewDisk(opts.DataDir)
		if err != nil {
			return nil, err
		}
		backing = disk
	} else {
		backing = objstore.NewMemory()
	}
	store := objstore.NewMetered(backing)
	cat := catalog.New()
	if opts.DataDir != "" {
		if err := cat.Load(store.Inner()); err != nil {
			return nil, fmt.Errorf("pixelsdb: load catalog: %w", err)
		}
	}
	clk := vclock.NewReal()
	// Engine reads go through the optional read cache; metering sits
	// beneath it, so Usage counts physical store requests (cache hits are
	// the requests the store never saw) while billed bytes-scanned stay
	// reader-side and cache-independent.
	var engineStore objstore.Store = store
	var rcache *cache.CachingStore
	if opts.CacheSize > 0 {
		rcache = cache.New(store, cache.Config{Capacity: opts.CacheSize})
		engineStore = rcache
	}
	eng := engine.New(cat, engineStore)
	cluster := vmsim.NewCluster(clk, opts.VM, opts.InitialVMs)
	cf := cfsim.NewService(clk, opts.CF)
	ledger := billing.NewLedger()
	coreCfg := core.Config{
		GracePeriod:        opts.GracePeriod,
		SlowQueryThreshold: opts.SlowQueryThreshold,
		Admission:          &admission.Config{}, // the built-in bounds
	}
	if bounds := opts.Admission; bounds != nil {
		coreCfg.Admission = bounds
	}
	var traces *obs.TraceStore
	if opts.Tracing {
		traces = obs.NewTraceStore(0)
		coreCfg.TraceStore = traces
	}
	planEntries := 0
	if opts.PlanCache {
		planEntries = 256
	}
	qc := qcache.New(qcache.Config{
		Catalog:     cat,
		Planner:     eng.PlanQuery,
		PlanEntries: planEntries,
		ResultBytes: int64(opts.ResultCacheMB) << 20,
	})
	// Assign through the concrete check: a typed-nil *ResultCache in the
	// interface would read as "cache on" to the coordinator.
	if rc := qc.Results(); rc != nil {
		coreCfg.ResultCache = rc
	}
	var cfInvoker engine.WorkerInvoker
	var workers *engine.ProcessInvoker
	switch opts.CFExecution {
	case "", "inprocess":
	case "process":
		if opts.DataDir == "" {
			return nil, fmt.Errorf("pixelsdb: CFExecution %q requires DataDir (worker processes cannot share an in-memory store)", opts.CFExecution)
		}
		argv := opts.CFWorkerCmd
		if len(argv) == 0 {
			argv = []string{"pixels-worker"}
		}
		workers = &engine.ProcessInvoker{Argv: argv, StoreDir: opts.DataDir}
		cfInvoker = workers
	default:
		return nil, fmt.Errorf("pixelsdb: unknown CFExecution %q (want \"inprocess\" or \"process\")", opts.CFExecution)
	}
	coord := core.NewCoordinator(clk, coreCfg, cluster, cf,
		&core.PlannedExecutor{Engine: eng, CFInvoker: cfInvoker}, ledger)

	xlator := opts.Translator
	if xlator == nil {
		xlator = &nl2sql.Template{}
	}

	db := &DB{
		opts: opts, clock: clk, store: store, cache: rcache, catalog: cat, engine: eng,
		cluster: cluster, coord: coord, ledger: ledger, xlator: xlator, qcache: qc,
		traces: traces, workers: workers,
	}
	if opts.AutoscaleInterval > 0 {
		policy := &autoscale.TargetUtilization{
			SlotsPerVM: cluster.Config().SlotsPerVM,
			Target:     0.7,
			MinVMs:     opts.MinVMs,
			MaxVMs:     opts.MaxVMs,
			HoldTicks:  3,
		}
		db.scaler = autoscale.NewManager(clk, cluster, policy, coord.Metrics)
		db.scaler.Start(opts.AutoscaleInterval)
	}
	return db, nil
}

// Close stops background components, reaps the idle CF worker processes of
// CFExecution "process", and persists the catalog when a DataDir is
// configured.
func (db *DB) Close() error {
	if db.scaler != nil {
		db.scaler.Stop()
	}
	if db.workers != nil {
		db.workers.Close()
	}
	if db.opts.DataDir != "" {
		return db.catalog.Save(db.store.Inner())
	}
	return nil
}

// Execute runs any statement synchronously, bypassing the scheduler (DDL,
// inserts, administrative queries).
func (db *DB) Execute(ctx context.Context, database, sqlText string) (*Result, error) {
	return db.engine.Execute(ctx, database, sqlText)
}

// Submit schedules a SELECT at a service level and returns its handle. It
// takes the path POST /v1/query takes: planning goes through the same
// qcache.Plan (with PlanCache/ResultCacheMB enabled, repeats of a
// normalized statement skip parse+bind+plan, and the coordinator may answer
// from the result cache without executing at all), and the same scheduler
// queues, places and — under overload — sheds it: a shed query's handle
// has Status "shed", a closed Done and an Err naming the reason. Finished
// results keep their rows under the scheduler's fixed retention budget,
// oldest released first: a released handle reports Released, and its
// Result keeps everything but the rows.
func (db *DB) Submit(database, sqlText string, level Level) (*Query, error) {
	var tr *obs.Trace
	if db.opts.Tracing {
		tr = obs.NewTrace("", "query")
	}
	pspan := tr.Root().StartChild("plan")
	node, resultKey, err := db.qcache.Plan(database, sqlText, 0)
	pspan.End()
	if err != nil {
		return nil, fmt.Errorf("pixelsdb: %w", err)
	}
	q := db.coord.Submit(sqlText, level, core.PlanPayload{Node: node, ResultKey: resultKey, Trace: tr})
	if tr != nil {
		tr.QueryID = q.ID
	}
	return q, nil
}

// Cancel aborts a still-queued query by ID; it ends "canceled", unbilled.
func (db *DB) Cancel(queryID string) error { return db.coord.Cancel(queryID) }

// Ask translates a natural-language question into SQL against a database's
// schema using the configured text-to-SQL service.
func (db *DB) Ask(database, question string) (nl2sql.Translation, error) {
	schema, err := nl2sql.SchemaFromCatalog(db.catalog, database)
	if err != nil {
		return nl2sql.Translation{}, err
	}
	return db.xlator.Translate(nl2sql.Request{Question: question, Schema: schema})
}

// AskAndSubmit chains Ask and Submit — the demo's one-shot flow.
func (db *DB) AskAndSubmit(database, question string, level Level) (*Query, nl2sql.Translation, error) {
	tr, err := db.Ask(database, question)
	if err != nil {
		return nil, tr, err
	}
	q, err := db.Submit(database, tr.SQL, level)
	return q, tr, err
}

// LoadSampleData generates and loads the TPC-H-derived sample dataset at a
// scale factor (0.01 ≈ 150 customers / 1500 orders).
func (db *DB) LoadSampleData(database string, sf float64) error {
	return workload.Load(db.engine, database, workload.LoadOptions{SF: sf, Seed: db.opts.Seed})
}

// Ledger exposes the billing ledger (per-query bills, report data).
func (db *DB) Ledger() *billing.Ledger { return db.ledger }

// PriceBook returns the active prices.
func (db *DB) PriceBook() billing.PriceBook { return billing.Default() }

// Engine exposes the embedded query engine (advanced use).
func (db *DB) Engine() *engine.Engine { return db.engine }

// CacheStats reports read-cache activity (hits, misses, evictions); ok is
// false when Options.CacheSize left the cache off.
func (db *DB) CacheStats() (stats cache.Stats, ok bool) {
	if db.cache == nil {
		return cache.Stats{}, false
	}
	return db.cache.Stats(), true
}

// StoreUsage reports the requests and bytes that reached the object store;
// with the read cache on, its hits are the requests missing here.
func (db *DB) StoreUsage() objstore.Usage { return db.store.Usage() }

// Coordinator exposes the scheduler (advanced use).
func (db *DB) Coordinator() *core.Coordinator { return db.coord }

// Cluster exposes the VM cluster simulator (metrics, cost).
func (db *DB) Cluster() *vmsim.Cluster { return db.cluster }

// QueryCache exposes the planner and the repeat-traffic cache behind it
// (both cache levels are off unless Options.PlanCache or
// Options.ResultCacheMB enabled them).
func (db *DB) QueryCache() *qcache.Cache { return db.qcache }

// QueryTrace returns a finished query's retained span tree, or nil when
// tracing is off, the query is not finished, or its trace was evicted.
func (db *DB) QueryTrace(queryID string) *obs.SpanData { return db.traces.Get(queryID) }

// Handler returns the Query Server REST handler (mount it on any mux).
func (db *DB) Handler(defaultDatabase, token string) http.Handler {
	s := &server.Server{
		Engine:     db.engine,
		Coord:      db.coord,
		Translator: db.xlator,
		Clock:      db.clock,
		DefaultDB:  defaultDatabase,
		Token:      token,
		QCache:     db.qcache,
		TraceStore: db.traces,
		Metrics:    db.opts.Metrics,
		Pprof:      db.opts.Pprof,
		CacheStats: db.CacheStats,
	}
	return s.Handler()
}

// NewRoverClient builds a client for a served instance.
func NewRoverClient(baseURL string) *rover.Client { return rover.NewClient(baseURL) }
