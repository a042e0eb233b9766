// pixels-server runs the PixelsDB Query Server: the REST API that
// Pixels-Rover clients talk to (translate questions, submit queries at a
// service level, poll status/results, read the cost-visibility report).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pixelsdb "repro"
	"repro/internal/admission"
	"repro/internal/billing"
)

// parseTier resolves a tier name in a flag like
// "immediate=64,relaxed=128,best=8" (accepting the short aliases imm/rel/best).
func parseTier(name string) (billing.Level, error) {
	switch strings.ToLower(name) {
	case "imm":
		return billing.Immediate, nil
	case "rel":
		return billing.Relaxed, nil
	case "best", "be":
		return billing.BestEffort, nil
	}
	return billing.ParseLevel(name)
}

// parseTierInts parses "tier=n,tier=n" flags (empty string = nil map,
// meaning built-in defaults).
func parseTierInts(flagName, s string) map[billing.Level]int {
	if s == "" {
		return nil
	}
	out := map[billing.Level]int{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			log.Fatalf("-%s: want tier=n[,tier=n...], got %q", flagName, part)
		}
		lev, err := parseTier(k)
		if err != nil {
			log.Fatalf("-%s: %v", flagName, err)
		}
		n := 0
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n < 0 {
			log.Fatalf("-%s: bad count %q for tier %s", flagName, v, k)
		}
		out[lev] = n
	}
	return out
}

// parseTierDurations parses "tier=dur,tier=dur" flags.
func parseTierDurations(flagName, s string) map[billing.Level]time.Duration {
	if s == "" {
		return nil
	}
	out := map[billing.Level]time.Duration{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			log.Fatalf("-%s: want tier=duration[,tier=duration...], got %q", flagName, part)
		}
		lev, err := parseTier(k)
		if err != nil {
			log.Fatalf("-%s: %v", flagName, err)
		}
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			log.Fatalf("-%s: bad duration %q for tier %s", flagName, v, k)
		}
		out[lev] = d
	}
	return out
}

func main() {
	var (
		addr     = flag.String("addr", ":8866", "listen address")
		dataDir  = flag.String("data", "", "data directory (empty = in-memory)")
		database = flag.String("db", "tpch", "default database")
		sf       = flag.Float64("sf", 0.01, "sample-data scale factor (0 = don't load)")
		token    = flag.String("token", "", "require this bearer token")
		grace    = flag.Duration("grace", 5*time.Minute, "relaxed grace period")
		vms      = flag.Int("vms", 2, "initial warm VMs")
		scaleInt = flag.Duration("autoscale", 15*time.Second, "autoscaler interval (0 = off)")
		cacheMB  = flag.Int("cache-mb", 0, "object-store read cache size in MiB (0 = off)")
		cfExec   = flag.String("cf-exec", "inprocess", "CF worker execution: inprocess (wire requests run on engine goroutines) or process (warm pixels-worker OS processes, one task each at a time; requires -data)")
		cfWorker = flag.String("cf-worker", "pixels-worker", "worker command for -cf-exec=process")
		planCh   = flag.Bool("plan-cache", false, "cache bound optimized plans keyed on normalized SQL (repeat-traffic fast path, level 1)")
		resCh    = flag.Int("result-cache-mb", 0, "result cache budget in MiB: serve repeat queries from cached rows, billing zero bytes scanned (0 = off)")
		traceOn  = flag.Bool("trace", false, "per-query span tracing: GET /v1/query/{id}/trace and pixels-cli trace (results and bills identical either way)")
		metrics  = flag.Bool("metrics", true, "Prometheus text metrics at GET /metrics")
		slowMs   = flag.Int64("slow-query-ms", 0, "log queries whose submit-to-finish time is at least this many milliseconds (0 = off)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		admQueue    = flag.String("adm-queue", "", "per-tier queue caps, e.g. immediate=64,relaxed=128,best=8 (empty = defaults)")
		admMaxWait  = flag.String("adm-maxwait", "", "per-tier max queue wait before shedding, e.g. immediate=2s,best=10s (empty = defaults; relaxed always waits -grace, then runs on CF)")
		admDeadline = flag.String("adm-deadline", "", "per-tier default completion deadlines for EDF, e.g. immediate=10s,relaxed=10m,best=10m (empty = defaults)")
	)
	flag.Parse()

	opts := pixelsdb.Options{
		DataDir:            *dataDir,
		InitialVMs:         *vms,
		GracePeriod:        *grace,
		AutoscaleInterval:  *scaleInt,
		CacheSize:          int64(*cacheMB) << 20,
		CFExecution:        *cfExec,
		CFWorkerCmd:        []string{*cfWorker},
		PlanCache:          *planCh,
		ResultCacheMB:      *resCh,
		Tracing:            *traceOn,
		Metrics:            *metrics,
		SlowQueryThreshold: time.Duration(*slowMs) * time.Millisecond,
		Pprof:              *pprofOn,
		Admission: &admission.Config{
			QueueCap: parseTierInts("adm-queue", *admQueue),
			MaxWait:  parseTierDurations("adm-maxwait", *admMaxWait),
			Deadline: parseTierDurations("adm-deadline", *admDeadline),
		},
	}
	db, err := pixelsdb.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	if *sf > 0 && !db.Engine().Catalog().HasDatabase(*database) {
		log.Printf("loading sample data into %q at SF %.3f ...", *database, *sf)
		if err := db.LoadSampleData(*database, *sf); err != nil {
			log.Fatal(err)
		}
	}

	p := db.PriceBook()
	fmt.Printf("PixelsDB query server on %s (db=%s)\n", *addr, *database)
	if *cacheMB > 0 {
		fmt.Printf("object-store read cache: %d MiB\n", *cacheMB)
	}
	if *planCh || *resCh > 0 {
		fmt.Printf("repeat-traffic fast path: plan cache %v, result cache %d MiB\n", *planCh, *resCh)
	}
	if *cfExec == "process" {
		fmt.Printf("CF execution: warm %q processes, one task each at a time, store-based shuffle\n", *cfWorker)
	}
	fmt.Printf("scheduler: %d VM slots, bounded EDF tier queues, strict priority\n", db.Cluster().Snapshot().TotalSlots)
	if *traceOn {
		fmt.Println("tracing: per-query span trees at GET /v1/query/{id}/trace")
	}
	if *metrics {
		fmt.Println("metrics: Prometheus text at GET /metrics")
	}
	fmt.Printf("service levels: immediate $%.2f/TB | relaxed $%.2f/TB (grace %s) | best-of-effort $%.2f/TB\n",
		p.ScanPricePerTBAt(pixelsdb.Immediate), p.ScanPricePerTBAt(pixelsdb.Relaxed),
		*grace, p.ScanPricePerTBAt(pixelsdb.BestEffort))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // after the first signal, a second one kills the process
	if err := serve(ctx, db, &http.Server{Addr: *addr, Handler: db.Handler(*database, *token)}); err != nil {
		log.Fatal(err)
	}
}

// shutdownGrace bounds how long a shutdown waits for in-flight HTTP
// requests before the database is closed anyway.
const shutdownGrace = 10 * time.Second

// serve runs srv until it fails or ctx ends (SIGINT or SIGTERM); then it
// shuts srv down within shutdownGrace. Either way it closes db, which saves
// the catalog and reaps the warm CF worker processes.
func serve(ctx context.Context, db *pixelsdb.DB, srv *http.Server) error {
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		log.Print("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err = srv.Shutdown(sctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	return errors.Join(err, db.Close())
}
