package engine

import (
	"runtime"
	"sync/atomic"
)

// The width budget is the one process-wide bound on what overlapping
// queries add to the host: a counter over intra-query parallel workers.
// Without it, the host's worker count is width × concurrent queries; with
// it, at most `cap` extra workers exist at any instant, so overlapping
// queries divide the host instead of oversubscribing it. Taking never
// blocks — a dry budget just narrows the query, which never changes
// results: partitions are contiguous file ranges merged in task order, so
// any width produces the serial plan's output.
//
// Every scan runs on one goroutine (the sequential loop, or that loop run
// one goroutine ahead of its consumer), so a query at width w decodes on at
// most w goroutines: the width bound is also the host's decode-concurrency
// bound.
//
// The first worker of every query is free, so every query makes progress
// with zero free tokens; tokens are held for one query's parallel phase and
// given back unconditionally when it ends.
var parallelBudget = &widthBudget{cap: int64(runtime.NumCPU())}

// widthBudget is a non-blocking counter of held tokens, with the most that
// ever were held at once.
type widthBudget struct {
	cap       int64
	inUse     atomic.Int64
	highWater atomic.Int64
}

// take grants up to n tokens without blocking and returns how many it
// granted (possibly 0).
func (b *widthBudget) take(n int) int {
	for {
		used := b.inUse.Load()
		got := min(int64(n), b.cap-used)
		if got <= 0 {
			return 0
		}
		if !b.inUse.CompareAndSwap(used, used+got) {
			continue
		}
		for hw := b.highWater.Load(); used+got > hw; hw = b.highWater.Load() {
			if b.highWater.CompareAndSwap(hw, used+got) {
				break
			}
		}
		return int(got)
	}
}

// give returns n tokens taken earlier.
func (b *widthBudget) give(n int) { b.inUse.Add(-int64(n)) }

// ParallelBudgetHighWater reports the maximum number of simultaneously
// held width tokens. Test hook.
func ParallelBudgetHighWater() int64 { return parallelBudget.highWater.Load() }
