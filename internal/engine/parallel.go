package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// RunPlanParallel executes a plan with intra-query parallelism on the VM
// side. It reuses the CF decomposition (Sec. III-A) to partition the
// dominant scan's files across up to `parallelism` in-process workers, but
// unlike the CF path the worker batches stream directly into the
// coordinator-side merge plan — no intermediate pixfiles touch the object
// store, so BytesIntermediate stays zero and BytesScanned remains exactly
// the $/TB-scan billing unit of Sec. III-B.
//
// Being in-process also unlocks the merge-side splits CF workers cannot
// run: plans with a left-deep join chain partition the probe side while all
// workers share one immutable hash table per join (built once, billed
// once). ORDER BY + LIMIT plans, as on CF, run the binder's bounded sort
// (TopNNode) in every worker and once more over the k·N survivors.
//
// A plan that split declines (no scans, no files, or a merge plan that may
// stop early), a split of one task and a zero width grant all run on the
// serial RunPlan, which runs the same bounded sort and bills a lazy LIMIT
// its minimum. Partitions are contiguous file ranges and the merge
// consumes worker outputs in partition order, so rows arrive at the merge
// in the serial plan's order — results match serial execution exactly,
// including sort ties, top-N cutoffs and group first-appearance order.
func (e *Engine) RunPlanParallel(ctx context.Context, node plan.Node, parallelism int) (*Result, error) {
	if parallelism <= 1 {
		return e.RunPlan(ctx, node)
	}
	split, err := e.split(node, "local", parallelism, true)
	if err != nil || len(split.Tasks) <= 1 {
		return e.RunPlan(ctx, node)
	}
	// Process-wide width budget: the first worker is free, each worker the
	// split actually starts beyond it needs a token (non-blocking), so
	// overlapping queries divide the host's workers instead of multiplying
	// them. A short grant re-partitions narrower — identical results, only
	// the partition count changes.
	want := len(split.Tasks) - 1
	granted := parallelBudget.take(want)
	if granted == 0 {
		return e.RunPlan(ctx, node)
	}
	defer parallelBudget.give(granted)
	if granted < want {
		split.partition(granted + 1)
	}
	return e.runSplitParallel(ctx, split)
}

// runSplitParallel runs a split on the VM: tasks are goroutines whose
// fragments sink into bounded channels, and the merge consumes the channels
// while the workers are still producing — no intermediate touches the
// object store.
func (e *Engine) runSplitParallel(ctx context.Context, split *CFSplit) (*Result, error) {
	ctx, pspan := obs.StartSpan(ctx, "exec:parallel")
	defer pspan.End()
	pspan.SetAttr("parts", len(split.Tasks))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// A split's joins sit in its worker plan. Their builds are prepared
	// here, exactly once — the same scans the serial plan performs — and
	// every probe worker probes the same immutable tables.
	var buildStats Stats
	joinBuilds, err := e.prepareBuilds(wctx, split.workerPlan, &buildStats, nil)
	if err != nil {
		return nil, err
	}

	n := len(split.Tasks)
	workerStats := make([]Stats, n)
	workerErrs := make([]error, n)
	streams := make([]exec.BatchIterator, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		h := newHandoff()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(h.ch)
			fctx, wspan := obs.StartSpan(wctx, fmt.Sprintf("worker:%d", i))
			workerStats[i], workerErrs[i] = e.runFragment(fctx, split.workerPlan, split.partScan, split.Tasks[i].Files, joinBuilds,
				func(b *col.Batch) error {
					select {
					case h.ch <- h.copyOf(b):
						return nil
					case <-fctx.Done():
						return fctx.Err()
					}
				})
			wspan.SetAttr("rows_scanned", workerStats[i].RowsScanned)
			wspan.End()
			if workerErrs[i] != nil {
				cancel() // abort sibling workers
			}
		}(i)
		streams[i] = func() (*col.Batch, error) {
			if b := h.next(); b != nil {
				return b, nil
			}
			return nil, workerErrs[i] // set before the channel closed
		}
	}

	res, err := e.mergeSplit(ctx, split, streams)

	// Unblock any worker still producing, then wait for all of them so the
	// per-worker stats reads below cannot race.
	cancel()
	wg.Wait()
	if err != nil {
		return nil, rootCause(ctx, err, workerErrs)
	}
	res.Stats.Add(buildStats)
	for i := range workerStats {
		res.Stats.Add(workerStats[i])
	}
	return res, nil
}

// handoff carries one worker's batches to the merge. A worker's batch is
// valid only until the worker's next pull, and the merge reads it later,
// so the worker sends a copy. The merge's pull hands the copy it returned
// last back to a free list before it takes the next one — exactly when the
// batch ownership rule ends that copy's validity — and the worker refills
// copies from the free list, so a steady stream allocates nothing.
type handoff struct {
	// Two batches of slack: a worker decodes ahead while the merge
	// consumes, without buffering a partition's whole output.
	ch   chan *col.Batch
	free chan *col.Batch // poisoned copies the merge is done with
	idx  []int           // worker side: 0, 1, 2, ..., reused
	held *col.Batch      // merge side: the copy the last pull returned
}

func newHandoff() *handoff {
	// At most four copies exist: two queued, one held by the merge and
	// one being filled.
	return &handoff{ch: make(chan *col.Batch, 2), free: make(chan *col.Batch, 4)}
}

// copyOf copies b into a recycled batch, or a new one while the free list
// is empty. The worker calls it.
func (h *handoff) copyOf(b *col.Batch) *col.Batch {
	var c *col.Batch
	select {
	case c = <-h.free:
	default:
		c = &col.Batch{Vecs: make([]*col.Vector, len(b.Vecs))}
		for i := range c.Vecs {
			c.Vecs[i] = &col.Vector{}
		}
	}
	for len(h.idx) < b.N {
		h.idx = append(h.idx, len(h.idx))
	}
	for i, v := range b.Vecs {
		v.GatherInto(c.Vecs[i], h.idx[:b.N])
	}
	c.N = b.N
	return c
}

// next returns the worker's next copy, or nil once the worker is done,
// after recycling the copy it returned last. The merge calls it.
func (h *handoff) next() *col.Batch {
	if h.held != nil {
		for _, v := range h.held.Vecs {
			col.Poison(v)
		}
		select {
		case h.free <- h.held:
		default:
		}
	}
	h.held = <-h.ch
	return h.held
}
