package engine

import (
	"context"
	"errors"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
)

// This file is the one fragment runner. Every topology executes the same
// pipeline — split → run task attempts → merge — out of the pieces below:
//
//	serial       RunPlan            no split: collectPlan over the whole plan
//	parallel VM  runSplitParallel   tasks are goroutines, runFragment sinks
//	                                into a bounded channel, mergeSplit reads
//	                                the channels
//	CF           core.runOnCF       tasks are InvokeTask attempts, runFragment
//	                                sinks into a pixfile in the object store,
//	                                mergeSplit reads one lazy reader per file
//
// so a change to how operators are built, how a fragment drains or how
// partitions merge lands once and is exercised by all three.

// buildOp is the only place an operator tree is built. overrides redirects
// scans (a task's file partition, a merge's worker streams), joinBuilds
// hands probe workers their shared build tables, and pipelined lets the
// scans proven to drain fully prefetch row groups ahead of consumption.
// Operator spans hang under ctx's current span.
func (e *Engine) buildOp(ctx context.Context, node plan.Node, stats *Stats, overrides map[*plan.ScanNode]scanOverride, joinBuilds map[*plan.JoinNode]*exec.JoinBuild, pipelined bool) (exec.Operator, error) {
	var eligible map[*plan.ScanNode]bool
	if pipelined {
		eligible = pipelineEligible(node)
	}
	return exec.BuildWith(node, exec.BuildEnv{
		ScanFactory: e.scanFactory(ctx, stats, overrides, eligible),
		JoinBuilds:  joinBuilds,
		Span:        obs.SpanFrom(ctx),
	})
}

// collectPlan builds a plan, pulls it to exhaustion on the calling
// goroutine and materializes the rows with the stats the pull accrued. It
// is the whole of a serial run and the coordinator half of a split one.
func (e *Engine) collectPlan(ctx context.Context, node plan.Node, overrides map[*plan.ScanNode]scanOverride, pipelined bool) (*Result, error) {
	stats := &Stats{}
	op, err := e.buildOp(ctx, node, stats, overrides, nil, pipelined)
	if err != nil {
		return nil, err
	}
	out, err := exec.Collect(op)
	if err != nil {
		return nil, err
	}
	return resultFromBatch(node.Schema(), out, *stats), nil
}

// runFragment executes one task: the fragment over the task's file
// partition, pushing each non-empty batch to sink. The sink is the only
// difference between an in-process worker (a bounded channel) and a CF
// worker (a pixfile writer). On any error the returned Stats are zero: a
// failed attempt is retried, and its bytes must not count toward the query
// or billed bytes would depend on how far the failure got.
func (e *Engine) runFragment(ctx context.Context, node plan.Node, scan *plan.ScanNode, files []catalog.FileMeta, joinBuilds map[*plan.JoinNode]*exec.JoinBuild, sink func(*col.Batch) error) (Stats, error) {
	stats := &Stats{}
	overrides := map[*plan.ScanNode]scanOverride{scan: {files: files}}
	op, err := e.buildOp(ctx, node, stats, overrides, joinBuilds, true)
	if err == nil {
		err = exec.Each(op, sink)
	}
	if err != nil {
		return Stats{}, err
	}
	return *stats, nil
}

// mergeSplit runs the coordinator side of a split over one stream per task,
// in task order. Top-N splits stream the k already-sorted task outputs
// through a heap merge — O(k·N log k) instead of a coordinator re-sort —
// with key ties resolving toward the lower-indexed (earlier-partition)
// task, exactly as the serial stable sort would. Every other mode consumes
// partition by partition, which keeps group first-appearance order (and
// therefore output order) deterministic. The streams are pulled from this
// goroutine only, so readers that account into shared Stats need no
// synchronization. The result carries the merge's own stats; the caller
// folds in what the tasks scanned.
func (e *Engine) mergeSplit(ctx context.Context, split *CFSplit, streams []exec.BatchIterator) (*Result, error) {
	ctx, mspan := obs.StartSpan(ctx, "merge")
	defer mspan.End()
	mergePlan := split.mergePlan
	var iter exec.BatchIterator
	if split.sortedMerge != nil {
		mergePlan = split.sortedMerge
		iter = exec.MergeSorted(streams, split.mergeKeys, split.workerPlan.Schema())
	} else {
		next := 0
		iter = func() (*col.Batch, error) {
			for next < len(streams) {
				b, err := streams[next]()
				if b != nil || err != nil {
					return b, err
				}
				next++
			}
			return nil, nil
		}
	}
	return e.collectPlan(ctx, mergePlan, map[*plan.ScanNode]scanOverride{split.interm: {iter: iter}}, false)
}

// rootCause picks the error a failed split reports. A task canceled by a
// sibling's failure surfaces context.Canceled; unless the caller's own
// context ended, the sibling's error is the one worth returning.
func rootCause(ctx context.Context, err error, taskErrs []error) error {
	if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
		return err
	}
	for _, terr := range taskErrs {
		if terr != nil && !errors.Is(terr, context.Canceled) {
			return terr
		}
	}
	return err
}
