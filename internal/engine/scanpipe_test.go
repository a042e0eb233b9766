package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/vec"
)

// newFilteredScanEngine loads two tables tuned for late-materialization
// tests, split across `files` pixfiles with `groups` row groups of
// `rowGroup` rows each:
//
//   - wide(k BIGINT, v DOUBLE, s VARCHAR, t VARCHAR): no NULLs, k
//     sequential so modulo predicates select whole row groups.
//   - nulls(n_key BIGINT, n_val DOUBLE, n_tag VARCHAR): n_val is NULL on
//     ~70% of rows, n_tag on every third row.
func newFilteredScanEngine(tb testing.TB, store objstore.Store, files, groups, rowGroup int) *Engine {
	tb.Helper()
	e := New(catalog.New(), store)
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE wide (k BIGINT NOT NULL, v DOUBLE NOT NULL, s VARCHAR NOT NULL, t VARCHAR NOT NULL)",
		"CREATE TABLE nulls (n_key BIGINT NOT NULL, n_val DOUBLE, n_tag VARCHAR)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			tb.Fatal(err)
		}
	}
	rowsPerFile := groups * rowGroup
	words := []string{"ash", "birch", "cedar", "fir", "oak"}
	for f := 0; f < files; f++ {
		k := col.NewVector(col.INT64, rowsPerFile)
		v := col.NewVector(col.FLOAT64, rowsPerFile)
		s := col.NewVector(col.STRING, rowsPerFile)
		t := col.NewVector(col.STRING, rowsPerFile)
		nk := col.NewVector(col.INT64, rowsPerFile)
		nv := col.NewVector(col.FLOAT64, rowsPerFile)
		nt := col.NewVector(col.STRING, rowsPerFile)
		for r := 0; r < rowsPerFile; r++ {
			i := f*rowsPerFile + r
			k.Ints[r] = int64(i)
			v.Floats[r] = float64(i % 997)
			s.Strs[r] = words[i%len(words)]
			t.Strs[r] = fmt.Sprintf("row-%07d", i)
			nk.Ints[r] = int64(i)
			if i%10 < 7 {
				nv.SetNull(r)
			} else {
				nv.Floats[r] = float64(i % 512)
			}
			if i%3 == 0 {
				nt.SetNull(r)
			} else {
				nt.Strs[r] = words[i%len(words)]
			}
		}
		opts := pixfile.WriterOptions{RowGroupSize: rowGroup}
		if err := e.LoadBatch("db", "wide", col.NewBatch(k, v, s, t), opts); err != nil {
			tb.Fatal(err)
		}
		if err := e.LoadBatch("db", "nulls", col.NewBatch(nk, nv, nt), opts); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// filteredScanQueries exercise the late-materializing scan: clustered
// zero-match row groups (modulo predicates zone maps cannot extract),
// all-match groups, partial matches, and NULL-heavy predicate columns.
var filteredScanQueries = []string{
	// Whole row groups miss: every 4th group matches (k sequential, 512
	// rows per group), payload chunks of the rest are skipped.
	"SELECT COUNT(*), SUM(v), MIN(s), MAX(t) FROM wide WHERE k % 2048 < 512",
	// All-match: the filter passes every row of every group.
	"SELECT COUNT(*), SUM(v) FROM wide WHERE k % 2048 >= 0",
	// Partial match inside every group.
	"SELECT COUNT(*), SUM(v), MIN(t) FROM wide WHERE v > 500",
	// Multi-column predicate: both k and v decode before s/t.
	"SELECT COUNT(*), MIN(s) FROM wide WHERE k % 1024 < 256 AND v > 100",
	// NULL-heavy predicate column: NULL comparisons drop rows.
	"SELECT COUNT(*), SUM(n_val) FROM nulls WHERE n_val > 100",
	// IS NULL on the mostly-NULL column.
	"SELECT COUNT(*) FROM nulls WHERE n_val IS NULL AND n_key % 512 < 128",
	// Filter on a nullable string column.
	"SELECT COUNT(*), MIN(n_tag) FROM nulls WHERE n_tag = 'cedar'",
	// Constant-false-per-group shape: zero rows anywhere.
	"SELECT COUNT(*), SUM(v) FROM wide WHERE k < 0",
	// Row-level results (not aggregates) from a clustered filter.
	"SELECT k, v, s FROM wide WHERE k % 4096 < 64 ORDER BY k",
}

// TestFilteredScanParallelMatchesSerial asserts result and full stats
// equality (rows, billed bytes, skipped chunks, filtered rows) between
// serial and parallel execution at widths 1, 2 and 8. Run with -race: the
// parallel workers and the merge run under every width above 1.
func TestFilteredScanParallelMatchesSerial(t *testing.T) {
	e := newFilteredScanEngine(t, objstore.NewMemory(), 8, 4, 512)
	for _, width := range []int{1, 2, 8} {
		for _, q := range filteredScanQueries {
			serial, par := runBoth(t, e, q, width)
			expectIdentical(t, fmt.Sprintf("%s @%d", q, width), serial, par)
		}
	}
}

// TestLateMaterializationSkipsChunks pins the exact accounting of the
// zero-match path: 2 files × 4 groups of 1024 rows, a modulo filter that
// selects exactly the first group of each file, and a 3-column projection
// whose predicate column is k. The 6 zero-match groups must skip their 2
// payload chunks each and shrink billed bytes accordingly.
func TestLateMaterializationSkipsChunks(t *testing.T) {
	e := newFilteredScanEngine(t, objstore.NewMemory(), 2, 4, 1024)
	ctx := context.Background()

	run := func(q string) *Result {
		t.Helper()
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		node, err := e.PlanQuery("db", stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunPlan(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	filtered := run("SELECT COUNT(*), SUM(v), MIN(s) FROM wide WHERE k % 4096 < 1024")
	unfiltered := run("SELECT COUNT(*), SUM(v), MIN(s), MAX(k) FROM wide")

	if got := filtered.Rows[0][0].I; got != 2048 {
		t.Fatalf("filtered count = %d, want 2048", got)
	}
	// 6 zero-match groups × 2 skipped payload chunks (v, s).
	if filtered.Stats.ColumnChunksSkipped != 12 {
		t.Fatalf("ColumnChunksSkipped = %d, want 12", filtered.Stats.ColumnChunksSkipped)
	}
	if filtered.Stats.RowsFiltered != 6*1024 {
		t.Fatalf("RowsFiltered = %d, want %d", filtered.Stats.RowsFiltered, 6*1024)
	}
	if filtered.Stats.RowsScanned != 8*1024 || filtered.Stats.RowGroupsRead != 8 {
		t.Fatalf("scan stats = %+v, want all 8 groups read", filtered.Stats)
	}
	if filtered.Stats.BytesScanned >= unfiltered.Stats.BytesScanned {
		t.Fatalf("filtered scan billed %d bytes, not less than unfiltered %d",
			filtered.Stats.BytesScanned, unfiltered.Stats.BytesScanned)
	}

	// The all-match query reads every chunk: nothing skipped, nothing
	// filtered, same billed bytes as serial execution of the same shape.
	all := run("SELECT COUNT(*), SUM(v), MIN(s) FROM wide WHERE k % 4096 >= 0")
	if all.Stats.ColumnChunksSkipped != 0 || all.Stats.RowsFiltered != 0 {
		t.Fatalf("all-match scan skipped/filtered: %+v", all.Stats)
	}
	if all.Stats.BytesScanned != filtered.Stats.BytesScanned+unusedChunkBytes(t, e, 12) {
		// The two queries project identical columns; the only difference
		// is the 12 skipped chunks.
		t.Fatalf("all-match billed %d, filtered %d + 12 chunks %d",
			all.Stats.BytesScanned, filtered.Stats.BytesScanned, unusedChunkBytes(t, e, 12))
	}
}

// unusedChunkBytes sums the sizes of the v and s chunks of the 6 groups
// the filtered query skipped (groups 1..3 of each of the 2 files).
func unusedChunkBytes(t *testing.T, e *Engine, want int) int64 {
	t.Helper()
	tab := mustTable(t, e, "wide")
	var total int64
	counted := 0
	for _, fm := range tab.Files {
		data, err := e.Store().Get(fm.Key)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pixfile.OpenBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		for g := 1; g < f.NumRowGroups(); g++ {
			rg := f.RowGroup(g)
			total += rg.Chunks[1].Length + rg.Chunks[2].Length // v, s
			counted += 2
		}
	}
	if counted != want {
		t.Fatalf("counted %d skipped chunks, want %d", counted, want)
	}
	return total
}

// gateStore wraps a store and, after `after` reads of its Objects, signals
// and then blocks every read until released — freezing a scan mid-fetch.
// It also counts the reads in the store at once, parked or not, and the
// most there ever were.
type gateStore struct {
	objstore.Store
	reads    atomic.Int64
	after    int64
	gate     chan struct{}
	started  chan struct{}
	once     atomic.Bool
	inflight atomic.Int64
	peak     atomic.Int64
}

func (g *gateStore) Open(key string) (objstore.Object, error) {
	o, err := g.Store.Open(key)
	if err != nil {
		return nil, err
	}
	return &gateObject{Object: o, g: g}, nil
}

type gateObject struct {
	objstore.Object
	g *gateStore
}

func (o *gateObject) ReadRange(off, length int64, buf []byte) ([]byte, error) {
	g := o.g
	n := g.inflight.Add(1)
	defer g.inflight.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	if g.reads.Add(1) > g.after {
		if g.once.CompareAndSwap(false, true) {
			close(g.started)
		}
		<-g.gate
	}
	return o.Object.ReadRange(off, length, buf)
}

// TestWidthBoundsBlockedFetches parks every store read of a query and
// asserts that a query at width w has w fetches blocked at once, and never
// more in flight over the whole run: each scan fetches on the one
// goroutine that pulls it, so the width budget bounds the host's fetch and
// decode concurrency.
func TestWidthBoundsBlockedFetches(t *testing.T) {
	defer withParallelBudget(16)()
	for _, c := range []struct {
		name  string
		width int
	}{
		{"serial", 1},
		{"parallel", 4}, // 8 files at width 4: four partitions, one scan each
	} {
		t.Run(c.name, func(t *testing.T) {
			gs := &gateStore{
				Store:   objstore.NewMemory(),
				after:   1 << 62, // open while loading
				gate:    make(chan struct{}),
				started: make(chan struct{}),
			}
			e := newFilteredScanEngine(t, gs, 8, 4, 512)
			node := planNode(t, e, "SELECT COUNT(*), SUM(v), MIN(s) FROM wide")
			gs.peak.Store(0)
			gs.after = 0 // every read from here on parks until the gate opens

			errc := make(chan error, 1)
			go func() {
				_, err := e.RunPlanParallel(context.Background(), node, c.width)
				errc <- err
			}()
			// Each scan parks at its first read; give any further fetcher
			// the time to arrive before counting.
			for start := time.Now(); gs.inflight.Load() < int64(c.width); {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("%d of %d scans reached their first fetch", gs.inflight.Load(), c.width)
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			blocked := gs.inflight.Load()
			close(gs.gate)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if blocked != int64(c.width) {
				t.Fatalf("%d fetches blocked at once at width %d", blocked, c.width)
			}
			if p := gs.peak.Load(); p > int64(c.width) {
				t.Fatalf("%d fetches in flight at once at width %d", p, c.width)
			}
		})
	}
}

// TestPipelineCancellationNoGoroutineLeak cancels a parallel query while
// its scans are parked mid-fetch and asserts the query returns the
// cancellation and that every goroutine its split → tasks → merge pipeline
// started has exited once the parked reads are released.
func TestPipelineCancellationNoGoroutineLeak(t *testing.T) {
	defer withParallelBudget(16)()
	gs := &gateStore{
		Store:   objstore.NewMemory(),
		after:   1 << 62, // open while loading
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	e := newFilteredScanEngine(t, gs, 8, 4, 512)
	node := planNode(t, e, "SELECT COUNT(*), SUM(v), MIN(s) FROM wide WHERE k % 2048 < 512")
	gs.reads.Store(0)
	gs.after = 24 // past the first footers, inside chunk reads

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.RunPlanParallel(ctx, node, 4)
		errc <- err
	}()
	select {
	case <-gs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline never reached the blocked fetch")
	}
	cancel()
	close(gs.gate) // the store API takes no context: release parked reads
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled query returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline goroutines leaked: %d alive, %d before the query",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParsedFooterCacheReopen asserts the decoded-footer cache serves
// reopens (no store requests, no re-parse) while billing footer bytes
// identically to a cold open.
func TestParsedFooterCacheReopen(t *testing.T) {
	met := objstore.NewMetered(objstore.NewMemory())
	cs := cache.New(met, cache.Config{})
	e := newFilteredScanEngine(t, cs, 4, 4, 512)
	ctx := context.Background()

	run := func() *Result {
		t.Helper()
		stmt, _ := sql.Parse("SELECT COUNT(*), SUM(v) FROM wide WHERE k % 2048 < 512")
		node, err := e.PlanQuery("db", stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunPlan(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run()
	s1 := cs.Stats()
	second := run()
	s2 := cs.Stats()

	if s2.ParsedFooterHits <= s1.ParsedFooterHits {
		t.Fatalf("reopen did not hit the parsed-footer cache: %d -> %d",
			s1.ParsedFooterHits, s2.ParsedFooterHits)
	}
	if first.Stats.BytesScanned != second.Stats.BytesScanned {
		t.Fatalf("parsed-footer cache changed billed bytes: %d vs %d",
			first.Stats.BytesScanned, second.Stats.BytesScanned)
	}
	if len(first.Rows) != len(second.Rows) || !first.Rows[0][0].Equal(second.Rows[0][0]) {
		t.Fatalf("reopened query diverged: %v vs %v", first.Rows, second.Rows)
	}

	// A rewrite through the store must drop the cached footer (the engine
	// would otherwise decode new chunks against a stale index).
	tab := mustTable(t, e, "wide")
	key := tab.Files[0].Key
	data, err := e.Store().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Store().Put(key, data); err != nil {
		t.Fatal(err)
	}
	o, err := cs.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.(objstore.FooterCacher).ParsedFooter(); ok {
		t.Fatal("Put did not invalidate the parsed footer")
	}
}

// TestDiskFooterCacheBillsIdentically: over a disk store with no read
// cache, a second pass of the same query serves every footer from the
// Disk's parsed-footer cache — two store reads (tail and footer) fewer per
// file — and bills exactly what the first pass did, with the same rows.
func TestDiskFooterCacheBillsIdentically(t *testing.T) {
	disk, err := objstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	met := objstore.NewMetered(disk)
	e := newFilteredScanEngine(t, met, 4, 4, 512)
	node := planNode(t, e, "SELECT COUNT(*), SUM(v), MIN(s) FROM wide WHERE k % 2048 < 512")
	run := func() (*Result, objstore.Usage) {
		t.Helper()
		before := met.Usage()
		res, err := e.RunPlan(context.Background(), node)
		if err != nil {
			t.Fatal(err)
		}
		return res, met.Usage().Sub(before)
	}
	first, u1 := run()
	second, u2 := run()
	if first.Stats.BytesScanned != second.Stats.BytesScanned {
		t.Fatalf("billed bytes %d on the first pass, %d on the second", first.Stats.BytesScanned, second.Stats.BytesScanned)
	}
	if got, want := rowsAsStrings(second), rowsAsStrings(first); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second pass rows %v, first %v", got, want)
	}
	if files := int64(len(mustTable(t, e, "wide").Files)); u2.Gets != u1.Gets-2*files {
		t.Fatalf("second pass made %d GETs, first %d; want %d fewer", u2.Gets, u1.Gets, 2*files)
	}
}

// keepStore is a metered store whose Delete keeps the object, so a test
// can look at intermediates after the merge swept them.
type keepStore struct{ *objstore.Metered }

func (keepStore) Delete(string) error { return nil }

// TestCFQueryCachesNoIntermediateFooter: the workers of a CF query store
// the base files' footers in the shared Disk, but the merge's scans of the
// intermediates store none — an intermediate is read once.
func TestCFQueryCachesNoIntermediateFooter(t *testing.T) {
	disk, err := objstore.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := newFilteredScanEngine(t, keepStore{objstore.NewMetered(disk)}, 4, 4, 512)
	split, err := e.SplitForCF(planNode(t, e, "SELECT s, COUNT(*), SUM(v) FROM wide GROUP BY s"), "q-footer", 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var interms []catalog.FileMeta
	for i := range split.Tasks {
		resp, err := e.InvokeTask(ctx, &LocalInvoker{Engine: e}, split, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		interms = append(interms, resp.Interm)
	}
	if _, err := e.MergeIntermediates(ctx, split, interms); err != nil {
		t.Fatal(err)
	}
	cached := func(key string) bool {
		o, err := disk.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		_, ok := o.(objstore.FooterCacher).ParsedFooter()
		return ok
	}
	for _, m := range interms {
		if cached(m.Key) {
			t.Fatalf("the merge cached intermediate %s's footer", m.Key)
		}
	}
	for _, f := range mustTable(t, e, "wide").Files {
		if !cached(f.Key) {
			t.Fatalf("base file %s's footer is not cached", f.Key)
		}
	}
}

// TestStagedFilterBillsEveryPredicateChunk: a staged filter fetches,
// checks and bills every predicate chunk of every row group it reads, as a
// single-stage evaluation does, and decodes none of a stage's columns once
// an earlier stage kept no row. Filter k % 2 = 1 AND a > 0 AND b < 0.5
// runs in three stages, {k}, {a} and {b}, over three row groups that zone
// maps cannot prune: in the first, stage 0 keeps no row; in the second,
// stage 2 empties the selection; in the third, rows survive. Rows, every
// Stats field and the store's GETs and bytes equal the single-stage run's,
// and so do the allocations of a warm decoder. A corrupt a chunk in the
// first row group fails the staged scan too.
func TestStagedFilterBillsEveryPredicateChunk(t *testing.T) {
	ctx := context.Background()
	met := objstore.NewMetered(objstore.NewMemory())
	e := New(catalog.New(), met)
	for _, q := range []string{"CREATE DATABASE db", "CREATE TABLE st (k BIGINT, a BIGINT, b DOUBLE, p VARCHAR)"} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatal(err)
		}
	}
	const rg = 64
	k, a := col.NewVector(col.INT64, 3*rg), col.NewVector(col.INT64, 3*rg)
	b, p := col.NewVector(col.FLOAT64, 3*rg), col.NewVector(col.STRING, 3*rg)
	for i := 0; i < 3*rg; i++ {
		g := i / rg
		k.Ints[i] = int64(2*i + min(g, 1)) // row group 0 all even, the others all odd
		a.Ints[i] = int64(i%4 - 1)         // > 0 on a quarter of the rows
		b.Floats[i] = float64(i%3) / 4     // 0, 0.25, 0.5
		if g == 1 && a.Ints[i] > 0 {
			b.Floats[i] = 1 // stage 2 drops every row stages 0 and 1 keep
		}
		p.Strs[i] = fmt.Sprintf("payload-%d", i)
	}
	if err := e.LoadBatch("db", "st", col.NewBatch(k, a, b, p), pixfile.WriterOptions{RowGroupSize: rg}); err != nil {
		t.Fatal(err)
	}
	node := scanNodeOf(planNode(t, e, "SELECT k, a, b, p FROM st WHERE k % 2 = 1 AND a > 0 AND b < 0.5"))
	staged, err := compileFilter(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(staged.stages) != 3 {
		t.Fatalf("%d stages, want 3", len(staged.stages))
	}
	whole, err := vec.CompilePredicate(node.Filter)
	if err != nil {
		t.Fatal(err)
	}
	single := &scanFilter{predPos: staged.predPos, restPos: staged.restPos,
		stages: []filterStage{{prog: whole, end: len(staged.predPos)}}}

	scan := func(f *scanFilter) ([]string, Stats, objstore.Usage, error) {
		var st Stats
		var rows []string
		before := met.Usage()
		next := e.newScanContext(ctx, node, f, node.Table.Files, &st, false).loop()
		for {
			batch, err := next()
			if err != nil || batch == nil {
				return rows, st, met.Usage().Sub(before), err
			}
			for r := 0; r < batch.N; r++ {
				rows = append(rows, fmt.Sprint(batch.Row(r)))
			}
		}
	}
	wantRows, wantStats, wantUse, err := scan(single)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, gotStats, gotUse, err := scan(staged)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRows) == 0 || fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
		t.Fatalf("staged rows %v, single-stage %v", gotRows, wantRows)
	}
	if gotStats != wantStats || gotStats.RowGroupsRead != 3 || gotStats.ColumnChunksSkipped != 2 {
		t.Fatalf("staged stats %+v, single-stage %+v", gotStats, wantStats)
	}
	if gotUse != wantUse {
		t.Fatalf("staged store usage %+v, single-stage %+v", gotUse, wantUse)
	}

	// Row group 0 by hand: stage 0 keeps no row, so a and b are fetched
	// but hold no decoded row.
	meta := node.Table.Files[0]
	obj, err := met.Open(meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	sc := e.newScanContext(ctx, node, staged, node.Table.Files, &Stats{}, false)
	f, err := sc.openPixfile(meta, obj)
	if err != nil {
		t.Fatal(err)
	}
	d := newRGDecoder(sc)
	if out, err := d.decode(f, sc.chunkFetcher(obj, &d.buf), 0); out != nil || err != nil {
		t.Fatalf("row group 0: batch %v, error %v", out, err)
	}
	for _, pos := range staged.predPos[staged.stages[0].end:] {
		if v := d.batch.Vecs[pos]; v == nil || v.N != 0 {
			t.Fatalf("row group 0: column %d decoded after stage 0 kept no row: %+v", node.Cols[pos], v)
		}
	}

	// Steady state: once a decoder's buffers have grown, decoding the
	// three row groups allocates no more staged than in one stage (the
	// string payload's survivors get a fresh backing blob either way).
	allocs := func(flt *scanFilter) float64 {
		sc := e.newScanContext(ctx, node, flt, node.Table.Files, &Stats{}, false)
		d := newRGDecoder(sc)
		fetch := sc.chunkFetcher(obj, &d.buf)
		pass := func() {
			for g := 0; g < 3; g++ {
				if _, err := d.decode(f, fetch, g); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass()
		return testing.AllocsPerRun(20, pass)
	}
	if got, want := allocs(staged), allocs(single); got > want {
		t.Fatalf("a staged pass allocates %v times, a single-stage one %v", got, want)
	}

	// A corrupt a chunk in row group 0 fails the staged scan: the chunk is
	// fetched and its CRC checked although no row reaches stage 1.
	data, err := met.Get(meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	ch := f.Footer().RowGroups[0].Chunks[node.Cols[staged.predPos[staged.stages[0].end]]]
	data = append([]byte(nil), data...)
	data[ch.Offset] ^= 0xff
	if err := met.Put(meta.Key, data); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := scan(staged); !errors.Is(err, pixfile.ErrCorrupt) {
		t.Fatalf("corrupt chunk behind an empty stage: %v", err)
	}
}

// scanNodeOf returns the first scan of a plan.
func scanNodeOf(n plan.Node) *plan.ScanNode {
	if s, ok := n.(*plan.ScanNode); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := scanNodeOf(c); s != nil {
			return s
		}
	}
	return nil
}
