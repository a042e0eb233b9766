package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/objstore/cache"
	"repro/internal/pixfile"
)

// lifeStore wraps a store and counts the Objects it opens and closes, and
// the Close calls that hit an object already closed.
type lifeStore struct {
	objstore.Store
	opens, closes, doubleCloses atomic.Int64
}

func (s *lifeStore) Open(key string) (objstore.Object, error) {
	o, err := s.Store.Open(key)
	if err != nil {
		return nil, err
	}
	s.opens.Add(1)
	return &lifeObject{s: s, Object: o}, nil
}

type lifeObject struct {
	objstore.Object
	s      *lifeStore
	closed atomic.Bool
}

func (o *lifeObject) Close() error {
	if !o.closed.CompareAndSwap(false, true) {
		o.s.doubleCloses.Add(1)
		return nil
	}
	o.s.closes.Add(1)
	return o.Object.Close()
}

// balanced waits until every opened object is closed — a close on the end
// of a query's context runs on a goroutine of its own — and returns the
// number of objects opened.
func (s *lifeStore) balanced(t *testing.T) int64 {
	t.Helper()
	for start := time.Now(); s.opens.Load() != s.closes.Load(); {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d objects opened, %d closed", s.opens.Load(), s.closes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := s.doubleCloses.Load(); n != 0 {
		t.Fatalf("%d objects closed twice", n)
	}
	return s.opens.Load()
}

func (s *lifeStore) reset() {
	s.opens.Store(0)
	s.closes.Store(0)
	s.doubleCloses.Store(0)
}

// closeStores are the stores TestScanClosesEveryObject scans, each over a
// Memory: the Memory itself, a read cache, and a FaultStore that delays
// every operation.
var closeStores = []struct {
	name string
	over func(objstore.Store) objstore.Store
}{
	{"memory", func(s objstore.Store) objstore.Store { return s }},
	{"cache", func(s objstore.Store) objstore.Store { return cache.New(s, cache.Config{}) }},
	{"fault-latency", func(s objstore.Store) objstore.Store {
		return objstore.NewFaultStore(s, objstore.FaultConfig{Seed: 1, Latency: time.Millisecond})
	}},
}

// TestScanClosesEveryObject asserts that a scan closes every object it
// opens, on each way a scan can end: drained, abandoned by an early LIMIT,
// canceled while blocked mid-fetch (the query returns the cancellation),
// failed on a corrupt chunk, and inside parallel and CF split runs — over
// each of closeStores. A full scan opens each file exactly once.
func TestScanClosesEveryObject(t *testing.T) {
	const files = 8
	ctx := context.Background()
	// each runs fn over every store of closeStores, as a subtest of its
	// own: ls counts the Objects of the store, read through gs.
	each := func(t *testing.T, fn func(t *testing.T, ls *lifeStore, gs *gateStore)) {
		for _, st := range closeStores {
			t.Run(st.name, func(t *testing.T) {
				gs := &gateStore{
					Store:   st.over(objstore.NewMemory()),
					after:   1 << 62, // open while loading
					gate:    make(chan struct{}),
					started: make(chan struct{}),
				}
				fn(t, &lifeStore{Store: gs}, gs)
			})
		}
	}

	t.Run("serial-limit", func(t *testing.T) {
		each(t, func(t *testing.T, ls *lifeStore, _ *gateStore) {
			e := newFilteredScanEngine(t, ls, files, 4, 512)
			ls.reset()
			res, err := e.RunPlan(ctx, planNode(t, e, "SELECT k FROM wide LIMIT 3"))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 3 {
				t.Fatalf("%d rows, want 3", len(res.Rows))
			}
			if n := ls.balanced(t); n == 0 || n >= files {
				t.Fatalf("LIMIT scan opened %d of %d files, want an early stop", n, files)
			}
		})
	})

	t.Run("canceled-mid-fetch", func(t *testing.T) {
		each(t, func(t *testing.T, ls *lifeStore, gs *gateStore) {
			e := newFilteredScanEngine(t, ls, files, 4, 512)
			ls.reset()
			gs.reads.Store(0)
			gs.after = 24 // past the first footers, inside chunk reads
			cctx, cancel := context.WithCancel(ctx)
			errc := make(chan error, 1)
			go func() {
				_, err := e.RunPlan(cctx, planNode(t, e, "SELECT COUNT(*), SUM(v), MIN(s) FROM wide WHERE k % 2048 < 512"))
				errc <- err
			}()
			select {
			case <-gs.started:
			case <-time.After(5 * time.Second):
				t.Fatal("scan never reached the blocked read")
			}
			cancel()
			// The scan runs on the query's goroutine and the store API
			// takes no context: the read in flight completes, then the scan
			// stops at the end of its step. A file costs 8 reads (tail,
			// footer, one matching row group's 3 chunks, 3 pruned groups'
			// k chunks), so the parked 25th read is the fourth file's tail,
			// and at most its footer and first row group's 3 chunks follow.
			atCancel := gs.reads.Load()
			close(gs.gate)
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled query returned %v, want context.Canceled", err)
			}
			if extra := gs.reads.Load() - atCancel; extra > 4 {
				t.Fatalf("the scan made %d reads after the cancel, want at most 4", extra)
			}
			ls.balanced(t)
		})
	})

	t.Run("parallel-width-8", func(t *testing.T) {
		defer withParallelBudget(16)()
		each(t, func(t *testing.T, ls *lifeStore, _ *gateStore) {
			e := newFilteredScanEngine(t, ls, files, 4, 512)
			ls.reset()
			if _, err := e.RunPlanParallel(ctx, planNode(t, e, "SELECT COUNT(*), SUM(v) FROM wide WHERE k % 2048 < 512"), 8); err != nil {
				t.Fatal(err)
			}
			if n := ls.balanced(t); n != files {
				t.Fatalf("parallel scan opened %d objects for %d files, want one each", n, files)
			}
		})
	})

	t.Run("cf-local", func(t *testing.T) {
		each(t, func(t *testing.T, ls *lifeStore, _ *gateStore) {
			e := newFilteredScanEngine(t, ls, files, 4, 512)
			ls.reset()
			split, err := e.SplitForCF(planNode(t, e, "SELECT s, COUNT(*) FROM wide GROUP BY s"), "q-life", 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := splitCF(e, &LocalInvoker{Engine: e}, split); err != nil {
				t.Fatal(err)
			}
			// Every base file once, plus one intermediate per task.
			if n := ls.balanced(t); n != files+int64(len(split.Tasks)) {
				t.Fatalf("CF run opened %d objects, want %d files + %d intermediates", n, files, len(split.Tasks))
			}
		})
	})

	t.Run("crc-error-mid-file", func(t *testing.T) {
		each(t, func(t *testing.T, ls *lifeStore, _ *gateStore) {
			e := newFilteredScanEngine(t, ls, files, 4, 512)
			key := mustTable(t, e, "wide").Files[2].Key
			data, err := ls.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			f, err := pixfile.OpenBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			data[f.RowGroup(1).Chunks[0].Offset] ^= 0xFF
			if err := ls.Put(key, data); err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				name string
				run  func() error
			}{
				{"serial", func() error {
					_, err := e.RunPlan(ctx, planNode(t, e, "SELECT SUM(k) FROM wide"))
					return err
				}},
				{"parallel", func() error {
					defer withParallelBudget(16)()
					_, err := e.RunPlanParallel(ctx, planNode(t, e, "SELECT SUM(k) FROM wide"), 4)
					return err
				}},
			} {
				ls.reset()
				if err := run.run(); !errors.Is(err, pixfile.ErrCorrupt) {
					t.Fatalf("%s: corrupt chunk returned %v, want ErrCorrupt", run.name, err)
				}
				ls.balanced(t)
			}
		})
	})
}
