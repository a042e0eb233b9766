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
// side. It follows the CF task model (Sec. III-A) and takes the same
// split: the dominant scan's files are partitioned across up to
// `parallelism` in-process workers, each worker finishes its output, and
// the coordinator merges the finished outputs. Unlike CF, the outputs stay
// in memory — no intermediate pixfiles touch the object store, so
// BytesIntermediate stays zero and BytesScanned remains exactly the
// $/TB-scan billing unit of Sec. III-B — and the workers share one
// immutable hash table per join (built once, billed once).
//
// A worker holds its whole output in memory, so the VM runs a split only
// where the worker plan blocks — a partial aggregate, or the binder's
// bounded sort (TopNNode) for ORDER BY + LIMIT, which the merge runs once
// more over the k·N survivors — and declines the bare scan pushdown of a
// streaming plan.
//
// A plan that split declines (no scans, no files, a merge plan that may
// stop early), a streaming plan, a split of one task and a zero width
// grant all run on the serial RunPlan, which runs the same bounded sort
// and bills a lazy LIMIT its minimum. Partitions are contiguous file
// ranges and the merge consumes worker outputs in partition order, so
// rows arrive at the merge in the serial plan's order — results match
// serial execution exactly, including sort ties, top-N cutoffs and group
// first-appearance order.
func (e *Engine) RunPlanParallel(ctx context.Context, node plan.Node, parallelism int) (*Result, error) {
	if parallelism <= 1 {
		return e.RunPlan(ctx, node)
	}
	split, err := e.split(node, "local", parallelism)
	if err != nil || len(split.Tasks) <= 1 || split.workerPlan == plan.Node(split.partScan) {
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
// keeping its fragment's one output batch, and the merge reads task i's
// batch once worker i has finished, in task order — no intermediate
// touches the object store. A blocking worker plan emits its output at its
// end, so the merge still folds task 0 while task 1 runs.
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

	streams, wait := e.startWorkers(wctx, cancel, split, joinBuilds)
	res, err := e.mergeSplit(ctx, split, streams)

	// Stop any worker the merge did not wait for, then wait for all of
	// them so the per-worker stats reads below cannot race.
	cancel()
	workerStats, workerErrs := wait()
	if err != nil {
		return nil, rootCause(ctx, err, workerErrs)
	}
	res.Stats.Add(buildStats)
	for i := range workerStats {
		res.Stats.Add(workerStats[i])
	}
	return res, nil
}

// startWorkers starts one goroutine per task of split, running the worker
// plan over the task's files and probing joinBuilds; a failed task calls
// cancel to abort its siblings. Task i's stream yields, once the task has
// finished, the one batch its plan emitted, as is: a VM worker plan's root
// is a partial aggregate or a bounded sort, which builds its output batch
// at its end and only drops it at Close, so nothing overwrites the batch
// while the merge reads it. Taking the batch as is keeps what the worker
// built, such as group keys coded under a build's dictionary, which a
// copy would turn into strings. wait blocks until every task has finished
// and returns each task's stats and error.
func (e *Engine) startWorkers(ctx context.Context, cancel context.CancelFunc, split *CFSplit, joinBuilds map[*plan.JoinNode]*exec.JoinBuild) (streams []exec.BatchIterator, wait func() ([]Stats, []error)) {
	n := len(split.Tasks)
	workerStats := make([]Stats, n)
	workerErrs := make([]error, n)
	done := make([]chan struct{}, n)
	streams = make([]exec.BatchIterator, n)
	for i := 0; i < n; i++ {
		var out *col.Batch
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			fctx, wspan := obs.StartSpan(ctx, fmt.Sprintf("worker:%d", i))
			workerStats[i], workerErrs[i] = e.runFragment(fctx, split.workerPlan, split.partScan, split.Tasks[i].Files, joinBuilds,
				func(b *col.Batch) error {
					if out != nil {
						return fmt.Errorf("engine: VM worker plan %T emitted a second batch", split.workerPlan)
					}
					out = b
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
			if workerErrs[i] != nil || b == nil {
				return nil, workerErrs[i]
			}
			return b, nil
		}
	}
	return streams, func() ([]Stats, []error) {
		for _, d := range done {
			<-d
		}
		return workerStats, workerErrs
	}
}
