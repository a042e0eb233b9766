package engine

import (
	"context"
	"fmt"

	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// RunPlanParallel executes a plan with intra-query parallelism on the VM
// side. It follows the CF task model (Sec. III-A): the dominant scan's
// files are partitioned across up to `parallelism` in-process workers,
// each worker finishes its output, and the coordinator merges the finished
// outputs. Unlike CF, the outputs stay in memory — no intermediate
// pixfiles touch the object store, so BytesIntermediate stays zero and
// BytesScanned remains exactly the $/TB-scan billing unit of Sec. III-B.
//
// Being in-process also unlocks what CF workers cannot run: a worker plan
// over a left-deep join chain, whose workers share one immutable hash table
// per join (built once, billed once). A VM split is taken only where the
// worker plan blocks — a partial aggregate, or the binder's bounded sort
// (TopNNode) for ORDER BY + LIMIT, which the merge runs once more over the
// k·N survivors.
//
// A plan that split declines (no scans, no files, a merge plan that may
// stop early, or a worker plan that would stream), a split of one task
// and a zero width grant all run on the serial RunPlan, which runs the
// same bounded sort and bills a lazy LIMIT its minimum. Partitions are
// contiguous file ranges and the merge consumes worker outputs in
// partition order, so rows arrive at the merge in the serial plan's order
// — results match serial execution exactly, including sort ties, top-N
// cutoffs and group first-appearance order.
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

// runSplitParallel runs a split on the VM: tasks are goroutines, each
// collecting its fragment's output into a batch of its own, and the merge
// reads task i's batch once worker i has finished, in task order — no
// intermediate touches the object store. A blocking worker plan emits its
// output at its end, so the merge still folds task 0 while task 1 runs.
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
	done := make([]chan struct{}, n)
	streams := make([]exec.BatchIterator, n)
	for i := 0; i < n; i++ {
		out := col.EmptyBatch(split.workerPlan.Schema())
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			fctx, wspan := obs.StartSpan(wctx, fmt.Sprintf("worker:%d", i))
			workerStats[i], workerErrs[i] = e.runFragment(fctx, split.workerPlan, split.partScan, split.Tasks[i].Files, joinBuilds,
				func(b *col.Batch) error {
					out.Append(b)
					return nil
				})
			wspan.SetAttr("rows_scanned", workerStats[i].RowsScanned)
			wspan.End()
			if workerErrs[i] != nil {
				cancel() // abort sibling workers
			}
		}()
		streams[i] = func() (*col.Batch, error) {
			<-done[i]
			b := out
			out = nil // a task's output is yielded once
			if workerErrs[i] != nil || b == nil || b.N == 0 {
				return nil, workerErrs[i]
			}
			return b, nil
		}
	}

	res, err := e.mergeSplit(ctx, split, streams)

	// Stop any worker the merge did not wait for, then wait for all of
	// them so the per-worker stats reads below cannot race.
	cancel()
	for _, d := range done {
		<-d
	}
	if err != nil {
		return nil, rootCause(ctx, err, workerErrs)
	}
	res.Stats.Add(buildStats)
	for i := range workerStats {
		res.Stats.Add(workerStats[i])
	}
	return res, nil
}
