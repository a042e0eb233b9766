package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Two process-wide budgets bound what overlapping queries may add to the
// host, both instances of tokenBudget:
//
// The scan-prefetch budget is a semaphore over pipeline decode workers.
// Without it the decode concurrency of a host is the product of every live
// scan's workers (parallel query workers × min(prefetch depth, NumCPU) each),
// which oversubscribes small hosts as soon as a few pipelined scans overlap.
// With it, at most `budget` decode workers hold a token at any instant
// across all engines in the process. Acquisition blocks.
//
// The parallelism budget is a semaphore over intra-query parallel workers.
// Without it, per-query width is fixed at request time and the host's total
// worker count is width × concurrent queries; with it, at most `budget`
// extra workers exist at any instant, so overlapping queries divide the host
// instead of oversubscribing it. Acquisition never blocks — a dry pool just
// narrows the query, which never changes results: partitions are contiguous
// file ranges merged in task order, so any width produces the serial plan's
// output.
//
// Deadlock-freedom, both budgets: worker 0 is exempt — the first decode
// worker of every pipeline and the first worker of every query never take a
// token, so every scan and every query always makes progress with zero free
// tokens. Prefetch tokens are held only for the duration of one row-group
// decode, never across a wait on another pipeline, so every blocking
// acquisition eventually succeeds; parallelism tokens are held for one
// query's parallel phase and released unconditionally when it ends.

// DefaultPrefetchBudget and DefaultParallelBudget are the token counts the
// process starts with: one per CPU, the point past which extra concurrent
// decodes or workers only thrash.
var (
	DefaultPrefetchBudget = runtime.NumCPU()
	DefaultParallelBudget = runtime.NumCPU()
)

var (
	prefetchBudget = newTokenBudget(DefaultPrefetchBudget)
	parallelBudget = newTokenBudget(DefaultParallelBudget)
)

// tokenBudget is a resizable counting semaphore that tracks how many tokens
// are held and the most that ever were.
type tokenBudget struct {
	def int // token count the process starts with
	mu  sync.RWMutex
	ch  chan struct{} // nil = unlimited

	inUse     atomic.Int64
	highWater atomic.Int64
}

func newTokenBudget(n int) *tokenBudget {
	return &tokenBudget{def: n, ch: make(chan struct{}, n)}
}

// resize swaps the semaphore: n > 0 sets the token count, 0 restores the
// starting count, negative removes the bound. Holders finish against the
// semaphore they acquired under. Only the engine's tests resize.
func (b *tokenBudget) resize(n int) {
	var ch chan struct{}
	switch {
	case n == 0:
		ch = make(chan struct{}, b.def)
	case n > 0:
		ch = make(chan struct{}, n)
	}
	b.mu.Lock()
	b.ch = ch
	b.mu.Unlock()
}

// snapshot returns the current semaphore; acquire and release must use the
// same snapshot so a concurrent resize cannot unbalance it.
func (b *tokenBudget) snapshot() chan struct{} {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.ch
}

// acquire blocks for a token (or context cancellation).
func (b *tokenBudget) acquire(ctx context.Context, ch chan struct{}) bool {
	select {
	case ch <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	b.held()
	return true
}

// tryAcquire takes a token only if one is free.
func (b *tokenBudget) tryAcquire(ch chan struct{}) bool {
	select {
	case ch <- struct{}{}:
	default:
		return false
	}
	b.held()
	return true
}

// held counts a freshly taken token and raises the high-water mark.
func (b *tokenBudget) held() {
	v := b.inUse.Add(1)
	for {
		hw := b.highWater.Load()
		if v <= hw || b.highWater.CompareAndSwap(hw, v) {
			return
		}
	}
}

func (b *tokenBudget) release(ch chan struct{}, n int) {
	for i := 0; i < n; i++ {
		b.inUse.Add(-1)
		<-ch
	}
}

// acquireParallelWidth grants a query between 1 and want workers: the
// first is free, each additional one costs a token, and acquisition never
// blocks — when the pool is dry the query simply runs narrower. The
// returned release frees exactly what was granted.
func acquireParallelWidth(want int) (int, func()) {
	ch := parallelBudget.snapshot()
	if ch == nil || want <= 1 {
		return want, func() {}
	}
	granted := 1
	for granted < want && parallelBudget.tryAcquire(ch) {
		granted++
	}
	return granted, func() { parallelBudget.release(ch, granted-1) }
}

// PrefetchBudgetHighWater reports the maximum number of simultaneously
// held prefetch tokens since the last reset. Test hook.
func PrefetchBudgetHighWater() int64 { return prefetchBudget.highWater.Load() }

// ResetPrefetchBudgetStats clears the high-water mark. Test hook.
func ResetPrefetchBudgetStats() { prefetchBudget.highWater.Store(0) }

// ParallelBudgetHighWater reports the maximum number of simultaneously
// held parallelism tokens since the last reset. Test hook.
func ParallelBudgetHighWater() int64 { return parallelBudget.highWater.Load() }

// ResetParallelBudgetStats clears the high-water mark. Test hook.
func ResetParallelBudgetStats() { parallelBudget.highWater.Store(0) }
