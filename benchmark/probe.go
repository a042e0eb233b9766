package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/engine"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/vclock"
	"repro/internal/vec"
	"repro/internal/workload"
)

// The probe pass (source d) times direct calls into single layers from one
// goroutine while the server is idle, with fixed iteration counts, over
// the workloads' own statements and files. It answers "how fast is this
// layer alone", which the span pass cannot: spans include waiting.

// questions are the 20 fixed NL questions of the translate probe, all
// within reach of the default template translator.
var questions = []string{
	"How many orders are there?",
	"How many customers are there?",
	"How many orders have a total price above 10000?",
	"How many orders have a total price greater than 50000?",
	"How many customers are in the building segment?",
	"How many customers are in the machinery segment?",
	"What is the average account balance of customers?",
	"What is the average total price of orders?",
	"What is the maximum total price of orders?",
	"What is the minimum account balance of customers?",
	"Total quantity of lineitems shipped after 1995-06-01",
	"What is the total revenue of lineitems shipped in 1995?",
	"Number of orders per order priority",
	"Number of customers per market segment",
	"Top 5 customers by account balance",
	"Top 10 orders by total price",
	"Top 3 parts by retail price",
	"Show orders with total price greater than 100000",
	"List all nations",
	"Count the orders placed in 1994",
}

// perOp runs fn n times and returns the mean cost of one call.
func perOp(n int, fn func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(t0) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// distinct returns the distinct canonical SELECT texts of a set of rounds.
func distinct(rounds [clients][]op) []string {
	seen := map[string]bool{}
	var out []string
	for _, round := range rounds {
		for _, o := range round {
			if o.Kind == opSelect && !seen[o.Canon] {
				seen[o.Canon] = true
				out = append(out, o.Canon)
			}
		}
	}
	return out
}

// firstOfEach returns one statement per family, in round order.
func firstOfEach(round []op) []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range round {
		if o.Kind == opSelect && !seen[o.Name] {
			seen[o.Name] = true
			out = append(out, o.Canon)
		}
	}
	return out
}

func planOf(eng *engine.Engine, text string) (plan.Node, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("probe: %T is not a SELECT", stmt)
	}
	return eng.PlanQuery(database, sel)
}

// probes runs every layer probe against the idle system e and returns the
// source-d metrics.
func probes(ctx context.Context, e *env, cfg config) (map[string]float64, error) {
	m := map[string]float64{}
	eng := e.db.Engine()
	// Each layer is probed with the statements of the workload that loads
	// it, rendered from this run's seed exactly as that workload would.
	rng := func() *rand.Rand { return rand.New(rand.NewSource(cfg.seed)) }
	own := distinct(e.rounds)
	adhoc := adhocRounds(rng(), cfg.sf)[0]
	report := reportRounds(rng(), cfg.sf)[0]
	cf := cfRounds(rng(), cfg.sf)[0]

	// admission: Controller.Submit with a Start that is already done.
	adm := admission.New(vclock.NewReal(), admission.Config{})
	closed := make(chan struct{})
	close(closed)
	m["admission.submit_us_op"] = us(perOp(2000, func() {
		adm.Submit(admission.Request{Level: billing.Immediate, Start: func() (any, <-chan struct{}) { return nil, closed }})
	}))

	// sql: lex + parse of this workload's statements.
	var ms0, ms1 runtime.MemStats
	reps := 1 + 2000/len(own)
	runtime.ReadMemStats(&ms0)
	var perr error
	parse := perOp(reps, func() {
		for _, text := range own {
			if _, err := sql.Parse(text); err != nil {
				perr = err
			}
		}
	})
	runtime.ReadMemStats(&ms1)
	if perr != nil {
		return nil, perr
	}
	m["sql.parse_us_op"] = us(parse) / float64(len(own))
	m["sql.parse_allocs_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps*len(own))

	// plan: bind + optimize of the parsed statements.
	var sels []*sql.Select
	for _, text := range own {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		sels = append(sels, stmt.(*sql.Select))
	}
	bind := perOp(1+500/len(sels), func() {
		for _, s := range sels {
			if _, err := eng.PlanQuery(database, s); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	m["plan.bind_optimize_us_op"] = us(bind) / float64(len(sels))

	// qcache: a warm plan-cache hit and a result-cache hit.
	qc := qcache.New(qcache.Config{Catalog: eng.Catalog(), Planner: eng.PlanQuery, PlanEntries: 256, ResultBytes: 64 << 20})
	keys := make([]string, len(own))
	for i, text := range own {
		_, key, err := qc.Plan(database, text, 0)
		if err != nil {
			return nil, err
		}
		keys[i] = key
		qc.Results().Put(key, &engine.Result{Columns: []string{"c"}, Types: []col.Type{col.INT64}, Rows: [][]col.Value{{col.Int(1)}}})
	}
	m["qcache.plan_hit_us_op"] = us(perOp(1+5000/len(own), func() {
		for _, text := range own {
			if _, _, err := qc.Plan(database, text, 0); err != nil {
				perr = err
			}
		}
	})) / float64(len(own))
	if perr != nil {
		return nil, perr
	}
	m["qcache.result_get_us_op"] = us(perOp(1+20000/len(keys), func() {
		for _, key := range keys {
			qc.Results().Get(key)
		}
	})) / float64(len(keys))

	if err := probeEngine(ctx, e, cfg, report, cf, m); err != nil {
		return nil, err
	}
	if err := probeScan(e, adhoc, m); err != nil {
		return nil, err
	}
	if err := probeDisk(e, m); err != nil {
		return nil, err
	}

	// objstore.cache: a ranged read served entirely from cached blocks.
	mem := objstore.NewMemory()
	if err := mem.Put("probe/object", make([]byte, 4<<20)); err != nil {
		return nil, err
	}
	cs := cache.New(mem, cache.Config{Capacity: 64 << 20, ReadAhead: -1})
	i := 0
	read := func() {
		if _, _, err := cs.GetRangeCached("probe/object", int64(i%60)<<16, 64<<10); err != nil {
			perr = err
		}
		i++
	}
	perOp(60, read) // fill
	m["objstore.cache.hit_us_op"] = us(perOp(20000, read))
	if perr != nil {
		return nil, perr
	}

	// nl2sql: the NL path through POST /v1/translate, server otherwise idle.
	var xl []float64
	for _, question := range questions {
		t0 := time.Now()
		code, data, err := e.clients[0].do(ctx, http.MethodPost, "/v1/translate",
			server.TranslateRequest{Database: database, Question: question})
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("translate %q: status %d: %s", question, code, data)
		}
		xl = append(xl, ms(time.Since(t0)))
	}
	m["nl2sql.translate_ms_p50"] = quantile(xl, 0.5)
	return m, nil
}

// probeEngine covers intra-query parallelism and the CF split, wire and
// process-spawn costs.
func probeEngine(ctx context.Context, e *env, cfg config, report, cf []op, m map[string]float64) error {
	// parallel_speedup: serial over nproc-wide, memory store, so neither
	// side waits for I/O.
	memEng := engine.New(catalog.New(), objstore.NewMemory())
	if err := workload.Load(memEng, database, workload.LoadOptions{SF: cfg.sf, Seed: dataSeed}); err != nil {
		return err
	}
	var serial, parallel float64
	for _, text := range firstOfEach(report) {
		node, err := planOf(memEng, text)
		if err != nil {
			return err
		}
		var s, p []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := memEng.RunPlan(ctx, node); err != nil {
				return err
			}
			s = append(s, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := memEng.RunPlanParallel(ctx, node, runtime.NumCPU()); err != nil {
				return err
			}
			p = append(p, ms(time.Since(t0)))
		}
		serial += quantile(s, 0.5)
		parallel += quantile(p, 0.5)
	}
	m["engine.parallel_speedup"] = ratio(serial, parallel)

	// split + wire over the cf_spill statements.
	eng := e.db.Engine()
	var split, enc, dec time.Duration
	var wireBytes, tasks int
	stmts := firstOfEach(cf)
	const reps = 50
	for _, text := range stmts {
		node, err := planOf(eng, text)
		if err != nil {
			return err
		}
		var sp *engine.CFSplit
		split += perOp(reps, func() { sp, err = eng.SplitForCF(node, "probe", 8) })
		if err != nil {
			return err
		}
		var payload []byte
		enc += perOp(reps, func() {
			var req *engine.WorkerRequest
			if req, err = engine.NewWorkerRequest(sp, 0, 0); err == nil {
				payload, err = json.Marshal(req)
			}
		})
		if err != nil {
			return err
		}
		dec += perOp(reps, func() {
			var req engine.WorkerRequest
			err = json.Unmarshal(payload, &req)
		})
		if err != nil {
			return err
		}
		wireBytes += len(payload)
		tasks++
	}
	m["engine.split_us_op"] = us(split) / float64(tasks)
	m["engine.wire_encode_us_op"] = us(enc) / float64(tasks)
	m["engine.wire_decode_us_op"] = us(dec) / float64(tasks)
	m["engine.wire_kb_per_task"] = float64(wireBytes) / 1e3 / float64(tasks)

	// spawn: the same one-row-group fragment through an OS process and
	// through the in-process invoker; the difference is the process.
	node, err := planOf(eng, `SELECT COUNT(*) FROM region`)
	if err != nil {
		return err
	}
	sp, err := eng.SplitForCF(node, "probe-spawn", 1)
	if err != nil {
		return err
	}
	invokers := []engine.WorkerInvoker{
		&engine.ProcessInvoker{Argv: []string{cfg.self, "worker"}, StoreDir: e.dir},
		&engine.LocalInvoker{Engine: eng},
	}
	var took [2][]float64
	for i := 0; i < 15; i++ {
		for k, inv := range invokers {
			req, err := engine.NewWorkerRequest(sp, 0, 2*i+k)
			if err != nil {
				return err
			}
			t0 := time.Now()
			resp, err := inv.Invoke(ctx, req)
			took[k] = append(took[k], ms(time.Since(t0)))
			if err != nil {
				return err
			}
			if resp.Error != "" {
				return fmt.Errorf("probe: worker: %s", resp.Error)
			}
		}
	}
	m["engine.spawn_ms_p50"] = quantile(took[0], 0.5) - quantile(took[1], 0.5)
	_, err = objstore.DeletePrefix(eng.Store(), objstore.IntermediatePrefix("probe-spawn"))
	return err
}

// probeScan covers pixfile decode and the vec kernels over lineitem files
// held in memory, so the store is excluded.
func probeScan(e *env, adhoc []op, m map[string]float64) error {
	eng := e.db.Engine()
	tbl, err := eng.Catalog().GetTable(database, "lineitem")
	if err != nil {
		return err
	}
	meta := tbl.Files[0]
	data, err := eng.Store().Get(meta.Key)
	if err != nil {
		return err
	}
	fetch := func(off, length int64) ([]byte, error) { return data[off : off+length], nil }

	var f *pixfile.File
	m["pixfile.open_us_op"] = us(perOp(200, func() { f, err = pixfile.Open(fetch, int64(len(data))) }))
	if err != nil {
		return err
	}

	// Full decode of every chunk of the file, then a 1-in-200 selective
	// decode (the shipmode scan's selectivity).
	ncols := f.Schema().Len()
	scratch := make([]*pixfile.ChunkScratch, ncols)
	for c := range scratch {
		scratch[c] = &pixfile.ChunkScratch{}
	}
	var chunkBytes, rows int64
	for g := 0; g < f.NumRowGroups(); g++ {
		rg := f.RowGroup(g)
		rows += int64(rg.NumRows)
		for _, ch := range rg.Chunks {
			chunkBytes += ch.Length
		}
	}
	const reps = 3
	full := perOp(reps, func() {
		for g := 0; g < f.NumRowGroups(); g++ {
			for c := 0; c < ncols; c++ {
				if _, derr := f.ReadColumnChunkVia(fetch, g, c, scratch[c]); derr != nil {
					err = derr
				}
			}
		}
	})
	if err != nil {
		return err
	}
	m["pixfile.decode_mb_s"] = float64(chunkBytes) / 1e6 / full.Seconds()
	m["pixfile.decode_ns_row"] = float64(full.Nanoseconds()) / float64(rows)
	var sel []int
	selective := perOp(reps, func() {
		for g := 0; g < f.NumRowGroups(); g++ {
			sel = sel[:0]
			for r := 0; r < f.RowGroup(g).NumRows; r += 200 {
				sel = append(sel, r)
			}
			for c := 0; c < ncols; c++ {
				if _, derr := f.ReadColumnChunkSelVia(fetch, g, c, sel, scratch[c]); derr != nil {
					err = derr
				}
			}
		}
	})
	if err != nil {
		return err
	}
	m["pixfile.seldecode_ns_row"] = float64(selective.Nanoseconds()) / float64(rows)

	// vec: the adhoc_scan pushed-down filters over one decoded row group —
	// forecast-revenue's numeric conjunction on row values, the shipmode
	// scan's string equality on dictionary codes.
	for _, p := range []struct{ family, metric string }{
		{"forecast-revenue", "vec.filter_ns_row"},
		{"shipmode-scan", "vec.filter_dict_ns_row"},
	} {
		var text string
		for _, o := range adhoc {
			if o.Name == p.family {
				text = o.Canon
				break
			}
		}
		node, err := planOf(eng, text)
		if err != nil {
			return err
		}
		scan := plan.Scans(node)[0]
		prog, ok := vec.Compile(scan.Filter)
		if !ok {
			return fmt.Errorf("probe: %s filter does not compile to kernels", p.family)
		}
		vecs := make([]*col.Vector, len(scan.Cols))
		dicts := map[int]*vec.DictCol{}
		for pos, c := range scan.Cols {
			if prog.DictEligible(pos) {
				v, dc, err := f.ReadColumnChunkDictVia(fetch, 0, c, nil)
				if err != nil {
					return err
				}
				if dc != nil {
					dicts[pos] = &vec.DictCol{Dict: dc.Dict, Codes: dc.Codes, Valid: dc.Valid, N: dc.N}
					continue
				}
				vecs[pos] = v
				continue
			}
			if vecs[pos], err = f.ReadColumnChunkVia(fetch, 0, c, nil); err != nil {
				return err
			}
		}
		n := f.RowGroup(0).NumRows
		batch := &col.Batch{Vecs: vecs, N: n}
		var vs vec.Scratch
		ran := true
		d := perOp(2000, func() {
			if len(dicts) > 0 {
				_, ok = prog.RunDict(batch, dicts, &vs)
			} else {
				_, ok = prog.Run(batch, &vs)
			}
			ran = ran && ok
		})
		if !ran {
			return fmt.Errorf("probe: %s kernel fell back to the interpreter", p.family)
		}
		m[p.metric] = float64(d.Nanoseconds()) / float64(n)
	}
	return nil
}

// probeDisk times the disk store the server really runs on: ranged reads
// (and how many bytes the process reads to return them), puts and lists.
func probeDisk(e *env, m map[string]float64) error {
	disk, err := objstore.NewDisk(e.dir)
	if err != nil {
		return err
	}
	tbl, err := e.db.Engine().Catalog().GetTable(database, "lineitem")
	if err != nil {
		return err
	}
	meta := tbl.Files[0]
	const span = 64 << 10
	slots := (meta.Size - span) / span
	if slots < 1 {
		return fmt.Errorf("probe: %s is smaller than 128 KiB", meta.Key)
	}
	const reads = 200
	r0 := procReadChars()
	i := int64(0)
	get := perOp(reads, func() {
		if _, gerr := disk.GetRange(meta.Key, (i%slots)*span, span); gerr != nil {
			err = gerr
		}
		i++
	})
	if err != nil {
		return err
	}
	m["objstore.disk_getrange_64k_us"] = us(get)
	m["objstore.disk_read_amplification"] = float64(procReadChars()-r0) / float64(reads*span)

	blob := make([]byte, 1<<20)
	n := 0
	put := perOp(20, func() {
		if perr := disk.Put("_probe/put-"+strconv.Itoa(n), blob); perr != nil {
			err = perr
		}
		n++
	})
	if err != nil {
		return err
	}
	m["objstore.disk_put_ms_op"] = ms(put)
	list := perOp(50, func() {
		if _, lerr := disk.List(database + "/lineitem/"); lerr != nil {
			err = lerr
		}
	})
	if err != nil {
		return err
	}
	m["objstore.disk_list_ms_op"] = ms(list)
	_, err = objstore.DeletePrefix(disk, "_probe/")
	return err
}

// procReadChars is rchar of /proc/self/io: bytes this process has asked
// the kernel to read, cached or not.
func procReadChars() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "rchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			return n
		}
	}
	return 0
}
