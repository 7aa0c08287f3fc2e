// Package par provides the small deterministic-friendly parallel-for used by
// the prover's hot paths (lane embedding, hierarchy validation, artifact and
// entry assembly). It is deliberately minimal: a bounded worker pool over an
// index range, with per-worker identities so callers can hand each worker its
// own scratch arena, and first-error propagation. Determinism of results is
// the caller's contract — every call site writes disjoint, index-addressed
// outputs, so scheduling order never reaches the output bytes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism setting: n ≤ 0 means GOMAXPROCS, anything
// else is taken as-is.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// chunk is the most consecutive indices a worker claims at once: large
// enough to amortize the atomic fetch, small enough to balance skewed costs
// (hierarchy nodes near the root are far heavier than leaves). Loops shorter
// than chunk indices per worker claim ⌈n/workers⌉ at a time instead, so even
// a handful of heavy items (a batch's property passes) spreads over the pool.
const chunk = 64

// For runs fn(worker, i) for every i in [0, n), distributed over workers
// goroutines. The worker id is in [0, workers) and is stable for the duration
// of a worker's lifetime, so fn may index per-worker scratch with it. With
// workers ≤ 1 (or a trivially small n) the loop runs inline on the calling
// goroutine with worker id 0.
func For(workers, n int, fn func(worker, i int)) {
	ForErr(workers, n, func(worker, i int) error {
		fn(worker, i)
		return nil
	})
}

// ForErr is For with error propagation: the first error (by completion order)
// cancels the remaining work at chunk granularity and is returned. Workers
// never abandon an index mid-call, so every output slot is either fully
// written or untouched.
func ForErr(workers, n int, fn func(worker, i int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	size := min(chunk, (n+workers-1)/workers)
	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for !failed.Load() {
				start := int(next.Add(int64(size))) - size
				if start >= n {
					return
				}
				end := min(start+size, n)
				for i := start; i < end; i++ {
					if err := fn(worker, i); err != nil {
						mu.Lock()
						if firstEr == nil {
							firstEr = err
						}
						mu.Unlock()
						failed.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return firstEr
}
