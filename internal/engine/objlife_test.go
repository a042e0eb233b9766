package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/pixfile"
)

// lifeStore is an objstore.Opener over a store that is not one. It counts
// the Objects it opens and closes, and the Close calls that hit an object
// already closed.
type lifeStore struct {
	objstore.Store
	opens, closes, doubleCloses atomic.Int64
}

func (s *lifeStore) Open(key string) (objstore.Object, error) {
	o, err := objstore.OpenObject(s.Store, key)
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

// TestScanClosesEveryObject asserts that a scan closes every object it
// opens, on each way a scan can end: drained, abandoned by an early LIMIT,
// canceled mid-file, failed on a corrupt chunk, and inside parallel and CF
// split runs. A full scan opens each file exactly once.
func TestScanClosesEveryObject(t *testing.T) {
	const files = 8
	ctx := context.Background()

	t.Run("serial-limit", func(t *testing.T) {
		ls := &lifeStore{Store: objstore.NewMemory()}
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

	t.Run("pipelined-canceled", func(t *testing.T) {
		gs := &gateStore{
			Store:   objstore.NewMemory(),
			after:   1 << 62, // open while loading
			gate:    make(chan struct{}),
			started: make(chan struct{}),
		}
		ls := &lifeStore{Store: gs}
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
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled query returned %v, want context.Canceled", err)
		}
		close(gs.gate)
		ls.balanced(t)
	})

	t.Run("parallel-width-8", func(t *testing.T) {
		defer withParallelBudget(16)()
		ls := &lifeStore{Store: objstore.NewMemory()}
		e := newFilteredScanEngine(t, ls, files, 4, 512)
		ls.reset()
		if _, err := e.RunPlanParallel(ctx, planNode(t, e, "SELECT COUNT(*), SUM(v) FROM wide WHERE k % 2048 < 512"), 8); err != nil {
			t.Fatal(err)
		}
		if n := ls.balanced(t); n != files {
			t.Fatalf("parallel scan opened %d objects for %d files, want one each", n, files)
		}
	})

	t.Run("cf-local", func(t *testing.T) {
		ls := &lifeStore{Store: objstore.NewMemory()}
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

	t.Run("crc-error-mid-file", func(t *testing.T) {
		ls := &lifeStore{Store: objstore.NewMemory()}
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
}
