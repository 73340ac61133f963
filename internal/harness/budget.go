package harness

import (
	"runtime"
	"sync"
)

// Worker budget. One process-wide token pool, sized to GOMAXPROCS, caps
// how many goroutines simulate at once. Only top-level schedulers take
// tokens — the experiment sweep, one per worker for the worker's
// lifetime, and benchmark drivers — and they block until one is free.
// Work inside a cell (interval sampling included) runs in the goroutine
// that holds the cell's token and takes none of its own, so nothing
// nests and nothing can deadlock on the pool.

type workerBudget struct {
	mu    sync.Mutex
	cond  *sync.Cond
	cap   int // total tokens
	inUse int // tokens currently held
}

var budget = func() *workerBudget {
	b := &workerBudget{cap: runtime.GOMAXPROCS(0)}
	b.cond = sync.NewCond(&b.mu)
	return b
}()

// WorkerBudget returns the current token-pool size.
func WorkerBudget() int {
	budget.mu.Lock()
	defer budget.mu.Unlock()
	return budget.cap
}

// SetWorkerBudget resizes the pool and returns the previous size. n < 1
// is clamped to 1. Outstanding tokens stay valid — a shrink simply makes
// the pool over-committed until they drain. Benchmarks and tests use this
// to pin concurrency regardless of the host.
func SetWorkerBudget(n int) int {
	if n < 1 {
		n = 1
	}
	budget.mu.Lock()
	prev := budget.cap
	budget.cap = n
	budget.mu.Unlock()
	budget.cond.Broadcast()
	return prev
}

// AcquireWorker blocks until a worker token is free and takes it.
func AcquireWorker() {
	budget.mu.Lock()
	for budget.inUse >= budget.cap {
		budget.cond.Wait()
	}
	budget.inUse++
	budget.mu.Unlock()
}

// ReleaseWorker returns one token taken with AcquireWorker.
func ReleaseWorker() {
	budget.mu.Lock()
	if budget.inUse > 0 {
		budget.inUse--
	}
	budget.mu.Unlock()
	budget.cond.Broadcast()
}
