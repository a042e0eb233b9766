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
//	                                into a batch of the task's own,
//	                                mergeSplit reads each finished batch in
//	                                task order
//	CF           core.runOnCF       tasks are InvokeTask attempts, runFragment
//	                                sinks into a pixfile in the object store,
//	                                mergeSplit reads one lazy reader per file
//	                                in task order
//
// so a change to how operators are built, how a fragment drains or how
// partitions merge lands once and is exercised by all three. Every split
// merges the same way; a top-N split's merge plan simply holds the same
// bounded sort its workers ran.

// buildOp is the only place an operator tree is built. overrides redirects
// scans (a task's file partition, a merge's worker streams), and
// joinBuilds holds every join's prepared build (prepareBuilds). Operator
// spans hang under ctx's current span.
func (e *Engine) buildOp(ctx context.Context, node plan.Node, stats *Stats, overrides map[*plan.ScanNode]scanOverride, joinBuilds map[*plan.JoinNode]*exec.JoinBuild) (exec.Operator, error) {
	return exec.BuildWith(node, exec.BuildEnv{
		ScanFactory: e.scanFactory(ctx, stats, overrides),
		JoinBuilds:  joinBuilds,
		Span:        obs.SpanFrom(ctx),
	})
}

// prepareBuilds is the only place join builds are prepared: every join's
// build side in node is scanned and indexed, top-down, under one
// join-build span, with the same stats and overrides the operator tree
// gets. A plan without a join gets neither a span nor a map.
func (e *Engine) prepareBuilds(ctx context.Context, node plan.Node, stats *Stats, overrides map[*plan.ScanNode]scanOverride) (map[*plan.JoinNode]*exec.JoinBuild, error) {
	if _, joins, _ := analyze(node); joins == 0 {
		return nil, nil
	}
	ctx, span := obs.StartSpan(ctx, "join-build")
	defer span.End()
	return exec.PrepareBuilds(node, exec.BuildEnv{ScanFactory: e.scanFactory(ctx, stats, overrides), Span: span})
}

// collectPlan prepares a plan's join builds, builds the plan, pulls it to
// exhaustion on the calling goroutine and materializes the rows with the
// stats the builds and the pull accrued. It is the whole of a serial run
// and the coordinator half of a split one.
func (e *Engine) collectPlan(ctx context.Context, node plan.Node, overrides map[*plan.ScanNode]scanOverride) (*Result, error) {
	stats := &Stats{}
	joinBuilds, err := e.prepareBuilds(ctx, node, stats, overrides)
	if err != nil {
		return nil, err
	}
	op, err := e.buildOp(ctx, node, stats, overrides, joinBuilds)
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
// partition, probing the shared joinBuilds, pushing each non-empty batch
// to sink. The sink is the only difference between an in-process worker
// (a batch of its own) and a CF worker (a pixfile writer). On any error the
// returned Stats are zero: a failed attempt is retried, and its bytes must
// not count toward the query or billed bytes would depend on how far the
// failure got.
func (e *Engine) runFragment(ctx context.Context, node plan.Node, scan *plan.ScanNode, files []catalog.FileMeta, joinBuilds map[*plan.JoinNode]*exec.JoinBuild, sink func(*col.Batch) error) (Stats, error) {
	stats := &Stats{}
	overrides := map[*plan.ScanNode]scanOverride{scan: {files: files}}
	op, err := e.buildOp(ctx, node, stats, overrides, joinBuilds)
	if err == nil {
		err = exec.Each(op, sink)
	}
	if err != nil {
		return Stats{}, err
	}
	return *stats, nil
}

// mergeSplit runs the coordinator side of a split over one stream per task,
// consumed partition by partition in task order. Partitions are contiguous,
// so rows reach the merge plan in the serial plan's arrival order: sort
// ties, top-N cutoffs and group first-appearance order resolve exactly as
// serially. The streams are pulled from this goroutine only, so readers
// that account into shared Stats need no synchronization. The result
// carries the merge's own stats; the caller folds in what the tasks
// scanned.
func (e *Engine) mergeSplit(ctx context.Context, split *CFSplit, streams []exec.BatchIterator) (*Result, error) {
	ctx, mspan := obs.StartSpan(ctx, "merge")
	defer mspan.End()
	next := 0
	iter := func() (*col.Batch, error) {
		for next < len(streams) {
			b, err := streams[next]()
			if b != nil || err != nil {
				return b, err
			}
			next++
		}
		return nil, nil
	}
	return e.collectPlan(ctx, split.mergePlan, map[*plan.ScanNode]scanOverride{split.interm: {iter: iter}})
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
