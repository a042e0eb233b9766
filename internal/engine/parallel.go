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
// run: single-join plans partition the probe side while all workers share
// one immutable build-side hash table (built once, billed once), and ORDER
// BY + LIMIT plans run a bounded top-N per worker so the coordinator merges
// k·N rows instead of sorting every partition's output.
//
// Plans that cannot be decomposed (no scans, empty tables), single-file
// partitions and merge plans that may stop early fall back to the serial
// RunPlan. Partitions are contiguous file ranges and the merge consumes
// worker outputs in partition order, so rows arrive at the merge in the
// serial plan's order — results match serial execution exactly, including
// sort ties, top-N cutoffs and group first-appearance order.
func (e *Engine) RunPlanParallel(ctx context.Context, node plan.Node, parallelism int) (*Result, error) {
	if parallelism <= 1 {
		return e.RunPlan(ctx, node)
	}
	split, err := e.SplitForCFOpts(node, "local", parallelism, SplitOptions{SharedJoinBuild: true})
	if err != nil || len(split.Tasks) <= 1 {
		return e.RunPlan(ctx, node)
	}
	if !drainsFully(split.mergePlan, split.interm) {
		// A merge plan that can stop early (LIMIT with no blocking
		// operator below it) would leave workers mid-scan with however
		// many row groups their buffers ran ahead, making BytesScanned —
		// the billing unit — inflated and timing-dependent. The serial
		// path pulls lazily and bills the minimum.
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

// drainsFully reports whether executing plan n is guaranteed to consume the
// target scan to exhaustion. A LimitNode stops pulling once satisfied, so
// the target is only safe if a blocking operator — sort, aggregation, or a
// join's build side, all of which materialize their input before emitting —
// sits between the limit and the target.
func drainsFully(n plan.Node, target *plan.ScanNode) bool {
	path := pathTo(n, target)
	if path == nil {
		return false // target unreachable: be conservative
	}
	// Walk from the target upward; once a blocking operator is crossed,
	// limits above it cannot cut the target's consumption short.
	protected := false
	for i := len(path) - 2; i >= 0; i-- {
		switch x := path[i].(type) {
		case *plan.SortNode, *plan.AggNode:
			protected = true
		case *plan.JoinNode:
			if x.Right == path[i+1] {
				protected = true
			}
		case *plan.LimitNode:
			if !protected {
				return false
			}
		}
	}
	return true
}

// pathTo returns the root→target node path, or nil.
func pathTo(n plan.Node, target *plan.ScanNode) []plan.Node {
	if n == plan.Node(target) {
		return []plan.Node{n}
	}
	for _, c := range n.Children() {
		if p := pathTo(c, target); p != nil {
			return append([]plan.Node{n}, p...)
		}
	}
	return nil
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

	// A shared-build split evaluates the join's build (right) side here,
	// exactly once — the same number of scans the serial plan performs —
	// and every probe worker gets the same immutable hash table.
	var joinBuilds map[*plan.JoinNode]*exec.JoinBuild
	var buildStats Stats
	if split.buildJoin != nil {
		bctx, bspan := obs.StartSpan(wctx, "join-build")
		rightOp, err := e.buildOp(bctx, split.buildJoin.Right, &buildStats, nil, nil, true)
		var jb *exec.JoinBuild
		if err == nil {
			jb, err = exec.PrepareJoinBuild(split.buildJoin, rightOp)
		}
		bspan.End()
		if err != nil {
			return nil, err
		}
		joinBuilds = map[*plan.JoinNode]*exec.JoinBuild{split.buildJoin: jb}
	}

	n := len(split.Tasks)
	workerStats := make([]Stats, n)
	workerErrs := make([]error, n)
	streams := make([]exec.BatchIterator, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Two batches of slack: a worker decodes ahead while the merge
		// consumes, without buffering a partition's whole output.
		ch := make(chan *col.Batch, 2)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(ch)
			fctx, wspan := obs.StartSpan(wctx, fmt.Sprintf("worker:%d", i))
			workerStats[i], workerErrs[i] = e.runFragment(fctx, split.workerPlan, split.partScan, split.Tasks[i].Files, joinBuilds,
				func(b *col.Batch) error {
					select {
					case ch <- b:
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
			if b, ok := <-ch; ok {
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
