package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/pixfile"
	"repro/internal/sql"
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
// pipeline's producer/worker/consumer goroutines all run under every
// width.
func TestFilteredScanParallelMatchesSerial(t *testing.T) {
	e := newFilteredScanEngine(t, objstore.NewMemory(), 8, 4, 512)
	for _, width := range []int{1, 2, 8} {
		for _, q := range filteredScanQueries {
			serial, par := runBoth(t, e, q, width)
			expectIdentical(t, fmt.Sprintf("%s @%d", q, width), serial, par)
		}
	}
}

// TestFilteredScanSynchronousMatchesPipelined asserts the pipelined scan
// is an exact drop-in for the synchronous one: same rows, same stats,
// same billed bytes.
func TestFilteredScanSynchronousMatchesPipelined(t *testing.T) {
	sync := newFilteredScanEngine(t, objstore.NewMemory(), 4, 4, 512)
	sync.prefetch = 0 // force every scan synchronous
	piped := newFilteredScanEngine(t, objstore.NewMemory(), 4, 4, 512)
	piped.prefetch = 8
	for _, q := range filteredScanQueries {
		s, _ := runBoth(t, sync, q, 1)
		p, _ := runBoth(t, piped, q, 1)
		expectIdentical(t, q+" (sync vs pipelined)", s, p)
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

// gateStore wraps a store and, after `after` ranged reads, signals and
// then blocks every read until released — freezing a scan pipeline in
// mid-flight.
type gateStore struct {
	objstore.Store
	reads   atomic.Int64
	after   int64
	gate    chan struct{}
	started chan struct{}
	once    atomic.Bool
}

func (g *gateStore) GetRange(key string, off, length int64) ([]byte, error) {
	if g.reads.Add(1) > g.after {
		if g.once.CompareAndSwap(false, true) {
			close(g.started)
		}
		<-g.gate
	}
	return g.Store.GetRange(key, off, length)
}

// TestPipelineCancellationNoGoroutineLeak cancels a query while its scan
// pipeline is blocked mid-fetch and asserts (a) the query surfaces the
// cancellation and (b) every pipeline goroutine exits — counted by the
// package's live-goroutine counter.
func TestPipelineCancellationNoGoroutineLeak(t *testing.T) {
	// Earlier tests' pipelines may still be unwinding (their queries have
	// returned; the cancel is propagating) — wait for quiescence first.
	for start := time.Now(); PipelineGoroutines() != 0; {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("pipeline goroutines alive before test: %d", PipelineGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
	gs := &gateStore{
		Store:   objstore.NewMemory(),
		after:   24, // past the footers, inside chunk reads
		gate:    make(chan struct{}),
		started: make(chan struct{}),
	}
	e := newFilteredScanEngine(t, gs, 8, 4, 512)
	gs.reads.Store(0) // loading consumed no reads, but be explicit

	ctx, cancel := context.WithCancel(context.Background())
	stmt, _ := sql.Parse("SELECT COUNT(*), SUM(v), MIN(s) FROM wide WHERE k % 2048 < 512")
	node, err := e.PlanQuery("db", stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e.RunPlan(ctx, node)
		errc <- err
	}()

	select {
	case <-gs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline never reached the blocked fetch")
	}
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled query returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return")
	}
	close(gs.gate) // release fetches still parked in the store

	deadline := time.Now().Add(5 * time.Second)
	for PipelineGoroutines() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline goroutines leaked: %d alive", PipelineGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneGoroutinePerScan freezes pipelined scans at their first fetch and
// asserts each live scan runs exactly one goroutine — so a query at width w
// decodes on at most w goroutines, the bound the width budget relies on.
func TestOneGoroutinePerScan(t *testing.T) {
	defer withParallelBudget(16)()
	for _, c := range []struct {
		name  string
		width int
		scans int64
	}{
		{"serial", 1, 1},
		{"parallel", 4, 4}, // 8 files at width 4: four partitions, one scan each
	} {
		t.Run(c.name, func(t *testing.T) {
			for start := time.Now(); PipelineGoroutines() != 0; {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("pipeline goroutines alive before test: %d", PipelineGoroutines())
				}
				time.Sleep(time.Millisecond)
			}
			gs := &gateStore{
				Store:   objstore.NewMemory(),
				after:   1 << 62, // open while loading
				gate:    make(chan struct{}),
				started: make(chan struct{}),
			}
			e := newFilteredScanEngine(t, gs, 8, 4, 512)
			e.prefetch = 8
			node := planNode(t, e, "SELECT COUNT(*), SUM(v), MIN(s) FROM wide")
			gs.after = 0 // every read from here on parks until the gate opens

			errc := make(chan error, 1)
			go func() {
				_, err := e.RunPlanParallel(context.Background(), node, c.width)
				errc <- err
			}()
			// Each scan parks at its first read, after its goroutine started.
			for start := time.Now(); gs.reads.Load() < c.scans; {
				if time.Since(start) > 5*time.Second {
					t.Fatalf("%d of %d scans reached their first fetch", gs.reads.Load(), c.scans)
				}
				time.Sleep(time.Millisecond)
			}
			got := PipelineGoroutines()
			close(gs.gate)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if got != c.scans {
				t.Fatalf("%d pipeline goroutines for %d frozen scans", got, c.scans)
			}
		})
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
	if _, ok := cs.ParsedFooter(key, int64(len(data))); ok {
		t.Fatal("Put did not invalidate the parsed footer")
	}
}
