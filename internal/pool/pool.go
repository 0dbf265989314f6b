// Package pool is the worker pool shared by the parallel layers of the
// engine: the plans operators (ELIMINATE/VERIFY fan-out), the MIP-index
// assembler and the delta store's merged view (per-CFI bounding boxes).
//
// Work is distributed dynamically through an atomic cursor rather than
// by static striding, so uneven item costs — tidsets of wildly different
// density — cannot idle a worker. The contract every caller relies on
// for determinism is that fn(i) is called exactly once per index and
// that callers land results in pre-indexed slots, so the merged output
// is independent of schedule and of the worker count. Every caller
// sizes its fan-out as runtime.GOMAXPROCS(0).
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0,n) across at most workers goroutines.
// With workers <= 1 (or nothing to parallelize) it degrades to the plain
// serial loop, in index order. It returns the number of goroutines
// actually used (1 for the serial path).
func For(n, workers int, fn func(i int)) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return 1
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return workers
}

// ForCtx is For with cooperative cancellation: every worker (and the
// serial path) polls ctx between items and stops claiming work once the
// context is done. It returns ctx.Err() when the context fired before
// all n items completed; items already started still finish (fn is never
// interrupted mid-call), so callers must discard partial output on
// error.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) (int, error) {
	done := ctx.Done()
	if done == nil {
		return For(n, workers, fn), nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return 1, ctx.Err()
			default:
			}
			fn(i)
		}
		return 1, nil
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return workers, ctx.Err()
}
