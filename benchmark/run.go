package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	pixelsdb "repro"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/server"
	"repro/internal/vmsim"
	"repro/internal/workload"
)

// wallGuard bounds one measured window beyond its --seconds budget;
// whatever has not finished by then counts as failed.
const wallGuard = 100 * time.Second

// billedRounds is how many rounds of a window billed_mb_per_query is taken
// over. Each INSERT of dashboard_repeat adds a file to supplier, so the
// freshness count bills more every round; over all rounds the mean would
// follow how many rounds a build completes, and a pure speed-up would read
// as a price change. Over a fixed prefix it is exact on every workload.
const billedRounds = 4

// rssEvery is how often a window samples the process's resident set. The
// end-to-end memory metric is the median sample: at the seed commit the
// true peak (VmHWM) of adhoc_scan differs by a factor of two between runs
// of the same build, because every ranged read allocates a whole object.
const rssEvery = 20 * time.Millisecond

// setupRepeats is how many times the system is opened and loaded; the
// median of the repeats goes into setup_s.
const setupRepeats = 3

// env is one open system under test: a pixelsdb.DB on a disk DataDir,
// served by its production handler on a loopback listener.
type env struct {
	spec    *workloadSpec
	seed    int64  // --seed: query literals and op order
	dir     string // DataDir
	db      *pixelsdb.DB
	srv     *http.Server
	served  chan error
	base    string
	leases  []*vmsim.Lease
	clients [clients]*apiClient
	rounds  [clients][]op
	want    map[string][][]string // canonical statement → reference rows

	supplierBase int64
	inserts      int64 // only client 0 writes

	mu         sync.Mutex
	violations []string
}

func (e *env) violate(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.violations) < 20 {
		e.violations = append(e.violations, fmt.Sprintf(format, args...))
	}
}

// openEnv builds the system in an empty DataDir exactly as pixels-server
// would (pixelsdb.Open + DB.Handler), loads the TPC-H dataset through the
// workload loader and starts serving. The dataset is loaded by the
// instance that serves it: at the seed commit an engine reopened over an
// existing DataDir restarts its file numbering, so the first INSERT would
// overwrite a table's first file.
func openEnv(spec *workloadSpec, dir string, cfg config, tracing bool) (*env, error) {
	opts := spec.Options(cfg.self)
	opts.DataDir = dir
	opts.Tracing = tracing
	db, err := pixelsdb.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := workload.Load(db.Engine(), database, workload.LoadOptions{SF: cfg.sf, Seed: dataSeed}); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	e := &env{spec: spec, seed: cfg.seed, dir: dir, db: db, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	e.srv = &http.Server{Handler: db.Handler(database, "")}
	go func() { e.served <- e.srv.Serve(ln) }()
	for c := range e.clients {
		e.clients[c] = newAPIClient(e.base)
	}
	if spec.HoldVMs {
		for {
			l, ok := db.Cluster().TryAcquire()
			if !ok {
				break
			}
			e.leases = append(e.leases, l)
		}
	}
	return e, nil
}

// close stops the server, waits for it, and saves the catalog.
func (e *env) close() error {
	for _, c := range e.clients {
		c.close()
	}
	for _, l := range e.leases {
		l.Release()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// reference executes every distinct statement once through DB.Execute —
// serial, in-process, past every cache and the scheduler — and stores its
// rows. Every HTTP result must match them.
func (e *env) reference(ctx context.Context) error {
	e.want = map[string][][]string{}
	for _, round := range e.rounds {
		for _, o := range round {
			if o.Kind != opSelect {
				continue
			}
			if _, ok := e.want[o.Canon]; ok {
				continue
			}
			res, err := e.db.Execute(ctx, database, o.Canon)
			if err != nil {
				return fmt.Errorf("reference %s: %w", o.Name, err)
			}
			rows := make([][]string, len(res.Rows))
			for i, row := range res.Rows {
				cells := make([]string, len(row))
				for j, v := range row {
					cells[j] = v.String()
				}
				rows[i] = cells
			}
			e.want[o.Canon] = rows
		}
	}
	res, err := e.db.Execute(ctx, database, countSupplier)
	if err != nil {
		return err
	}
	e.supplierBase = res.Rows[0][0].I
	return nil
}

// runOp executes one op of a round and checks it against the oracle.
func (e *env) runOp(ctx context.Context, c, round int, o op, traced bool) []*sample {
	cl := e.clients[c]
	if o.Kind == opInsert {
		ins := &sample{Client: c, Round: round, Name: "insert", Kind: "insert", Start: time.Now().UnixMicro()}
		_, err := e.db.Execute(ctx, database, insertSupplier(e.supplierBase+e.inserts))
		ins.End = time.Now().UnixMicro()
		if err != nil {
			ins.Err = err.Error()
			return []*sample{ins}
		}
		e.inserts++
		// The count must see the write: a stale plan or result cache hit
		// is a failure, not a fast answer.
		cnt := &sample{Client: c, Round: round, Name: "supplier-count", Kind: "select"}
		res, err := cl.query(ctx, countSupplier, e.spec.Tiers[c], cnt)
		switch {
		case err != nil:
			cnt.Err = err.Error()
		case len(res.Rows) != 1 || res.Rows[0][0] != strconv.FormatInt(e.supplierBase+e.inserts, 10):
			cnt.Err = fmt.Sprintf("stale supplier count %v, want %d", res.Rows, e.supplierBase+e.inserts)
		}
		e.traceOf(ctx, cl, cnt, traced)
		return []*sample{ins, cnt}
	}
	s := &sample{Client: c, Round: round, Name: o.Name, Kind: "select"}
	res, err := cl.query(ctx, o.Text, e.spec.Tiers[c], s)
	switch {
	case err != nil:
		s.Err = err.Error()
	case !sameRows(res.Rows, e.want[o.Canon]):
		s.Err = fmt.Sprintf("rows differ from the serial reference (%d rows)", len(res.Rows))
	}
	e.traceOf(ctx, cl, s, traced)
	return []*sample{s}
}

func (e *env) traceOf(ctx context.Context, cl *apiClient, s *sample, traced bool) {
	if !traced || s.Err != "" {
		return
	}
	root, err := cl.fetchTrace(ctx, s.QueryID)
	if err != nil {
		s.Err = "trace: " + err.Error()
		return
	}
	s.trace = root
}

// window is one measured interval: what the clients did plus the deltas
// of every counter the system exposes from outside.
type window struct {
	samples       []*sample
	rss           []float64 // VmRSS in MB, sampled every rssEvery
	wall          [clients]time.Duration
	cpuSelf       time.Duration
	cpuKids       time.Duration
	before, after counterSnap
}

// drive runs every client through its round, closed loop, until budget
// has elapsed (at least once), finishing the round it is in: the op mix
// is always whole rounds, so per-op means compare across runs.
func (e *env) drive(ctx context.Context, budget time.Duration, traced bool) (*window, error) {
	ctx, cancel := context.WithTimeout(ctx, budget+wallGuard)
	defer cancel()
	w := &window{}
	var err error
	if w.before, err = e.counters(ctx); err != nil {
		return nil, err
	}
	selfCPU0, kidsCPU0 := cpuTimes()
	start := time.Now()

	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				return
			case <-tick.C:
				w.rss = append(w.rss, procStatusMB("VmRSS:"))
			}
		}
	}()

	var wg sync.WaitGroup
	perClient := make([][]*sample, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Every round is the same statements in a fresh seeded order, so
			// which statements of the two clients overlap is drawn anew each
			// round and does not persist through a run.
			order := rand.New(rand.NewSource(e.seed<<8 + int64(c)))
			ops := append([]op(nil), e.rounds[c]...)
			for round := 0; round == 0 || time.Since(start) < budget; round++ {
				order.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
				for i, o := range ops {
					if ctx.Err() != nil {
						// Unfinished work is failed work.
						perClient[c] = append(perClient[c], &sample{Client: c, Round: round, Name: o.Name,
							Kind: "select", Err: fmt.Sprintf("unfinished: wall guard hit at op %d", i)})
						continue
					}
					perClient[c] = append(perClient[c], e.runOp(ctx, c, round, o, traced)...)
				}
				if ctx.Err() != nil {
					break
				}
			}
			w.wall[c] = time.Since(start)
		}(c)
	}
	wg.Wait()
	close(stopRSS)
	<-rssDone

	selfCPU1, kidsCPU1 := cpuTimes()
	w.cpuSelf, w.cpuKids = selfCPU1-selfCPU0, kidsCPU1-kidsCPU0
	for _, s := range perClient {
		w.samples = append(w.samples, s...)
	}
	w.after, err = e.counters(context.Background())
	return w, err
}

// counterSnap is one reading of the counters the system exposes from
// outside; per-layer count metrics are differences of two.
type counterSnap struct {
	store  objstore.Usage
	cache  cache.Stats
	qcache server.CachePayload
	adm    server.AdmissionPayload
	mem    runtime.MemStats
}

// counters reads DB.StoreUsage, DB.CacheStats, GET /v1/cache, GET
// /v1/admission and the Go runtime's allocation counters.
func (e *env) counters(ctx context.Context) (counterSnap, error) {
	var s counterSnap
	s.store = e.db.StoreUsage()
	s.cache, _ = e.db.CacheStats()
	if err := e.clients[0].getJSON(ctx, "/v1/cache", &s.qcache); err != nil {
		return s, err
	}
	if err := e.clients[0].getJSON(ctx, "/v1/admission", &s.adm); err != nil {
		return s, err
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// shed is how many submissions admission control turned away in the window.
func (w *window) shed() int64 {
	var n int64
	for i, t := range w.after.adm.Tiers {
		n += t.Shed - w.before.adm.Tiers[i].Shed
	}
	return n
}

// cpuTimes returns user+system CPU of this process and of its waited-for
// children (the CF workers).
func cpuTimes() (self, kids time.Duration) {
	get := func(who int) time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return get(syscall.RUSAGE_SELF), get(syscall.RUSAGE_CHILDREN)
}

// procStatusMB reads one kB field of /proc/self/status ("VmRSS:", the
// resident set; "VmHWM:", its high-water mark) in MB.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1000
		}
	}
	return 0
}

// finished splits a window's samples.
func (w *window) finished() (selects, inserts []*sample, failed int) {
	for _, s := range w.samples {
		switch {
		case s.Err != "":
			failed++
		case s.Kind == "insert":
			inserts = append(inserts, s)
		default:
			selects = append(selects, s)
		}
	}
	return
}

// endToEndMetrics computes the user-visible numbers of one untraced window.
func (w *window) endToEndMetrics(setup time.Duration) map[string]float64 {
	selects, inserts, _ := w.finished()
	lat := make([]float64, len(selects))
	var billed, billedOps float64
	for i, s := range selects {
		lat[i] = s.latencyMs()
		if s.Round < billedRounds {
			billed += float64(s.Billed)
			billedOps++
		}
	}
	done := float64(len(selects) + len(inserts))
	perClient := [clients]float64{}
	for _, s := range append(selects, inserts...) {
		perClient[s.Client]++
	}
	qps := 0.0
	for c, n := range perClient {
		qps += ratio(n, w.wall[c].Seconds())
	}
	return map[string]float64{
		"setup_s":             setup.Seconds(),
		"query_p50_ms":        quantile(lat, 0.50),
		"query_p90_ms":        quantile(lat, 0.90),
		"throughput_qps":      qps,
		"cpu_s_per_query":     ratio((w.cpuSelf + w.cpuKids).Seconds(), done),
		"billed_mb_per_query": ratio(billed/1e6, billedOps),
		"rss_mb":              quantile(w.rss, 0.5),
	}
}

// checkWindow applies the oracle rules that are not per-op: nothing shed,
// CF routing as the workload demands, ledger and results agree on billed
// bytes, and no shuffle object left behind.
func (e *env) checkWindow(ctx context.Context, w *window) (billDiff int64) {
	if n := w.shed(); n != 0 {
		e.violate("admission shed %d queries", n)
	}
	bills := map[string]int64{}
	for _, b := range e.db.Ledger().All() {
		bills[b.QueryID] = b.BytesScanned
	}
	selects, _, _ := w.finished()
	for _, s := range selects {
		if s.UsedCF != e.spec.HoldVMs {
			e.violate("query %s usedCF=%v, want %v", s.QueryID, s.UsedCF, e.spec.HoldVMs)
		}
		bill, ok := bills[s.QueryID]
		if !ok {
			e.violate("query %s has no bill", s.QueryID)
			continue
		}
		if bill != s.Billed {
			// At the seed commit the coordinator publishes a query's status
			// before it appends the bill, so a prompt client can read a
			// result block that predates it. Only a result that still
			// disagrees with the ledger now is a conservation failure.
			var late server.ResultPayloadV1
			if err := e.clients[0].getJSON(ctx, "/v1/query/"+s.QueryID+"/result", &late); err == nil {
				s.Billed = late.BytesScanned
			}
		}
		billDiff += bill - s.Billed
	}
	if billDiff != 0 {
		e.violate("ledger and result payloads differ by %d billed bytes", billDiff)
	}
	left, err := e.db.Engine().Store().List(objstore.IntermediateRoot)
	if err != nil {
		e.violate("list %s: %v", objstore.IntermediateRoot, err)
	} else if len(left) != 0 {
		e.violate("%d intermediate objects left under %s", len(left), objstore.IntermediateRoot)
	}
	return billDiff
}

// setUp builds a measurable system: opened and loaded setupRepeats times
// (the median is reported), then reference rows and one warm-up round so
// caches are full and lazy set-up is done.
func setUp(ctx context.Context, spec *workloadSpec, cfg config) (*env, time.Duration, error) {
	var e *env
	var loads []float64
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(cfg.outDir, "data-")
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if e, err = openEnv(spec, dir, cfg, false); err != nil {
			return nil, 0, errors.Join(err, os.RemoveAll(dir))
		}
		loads = append(loads, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := errors.Join(e.close(), os.RemoveAll(dir)); err != nil {
				return nil, 0, err
			}
		}
	}
	t0 := time.Now()
	e.rounds = spec.Rounds(rand.New(rand.NewSource(cfg.seed)), cfg.sf)
	if err := e.reference(ctx); err != nil {
		return nil, 0, errors.Join(err, e.close(), os.RemoveAll(e.dir))
	}
	if err := e.warmUp(ctx); err != nil {
		return nil, 0, errors.Join(err, e.close(), os.RemoveAll(e.dir))
	}
	setup := time.Duration(quantile(loads, 0.5)*float64(time.Second)) + time.Since(t0)
	return e, setup, nil
}

// warmUp runs one untimed round per client. Its ops go through the oracle
// like any other.
func (e *env) warmUp(ctx context.Context) error {
	w, err := e.drive(ctx, 0, false)
	if err != nil {
		return err
	}
	for _, s := range w.samples {
		if s.Err != "" {
			e.violate("warm-up %s: %s", s.Name, s.Err)
		}
	}
	return nil
}
