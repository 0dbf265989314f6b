// Package pool is the engine's one fan-out: the plans operators
// (ELIMINATE's support checks, VERIFY's and ARM's rule generation) and
// the MIP-index assembler (mip.Assemble: per-CFI bounding boxes, for the
// offline build and the delta store's merged view alike) run their
// parallel loops through Run.
//
// Work is claimed from an atomic cursor rather than striped statically,
// so uneven item costs cannot idle a worker. Callers rely on fn(i)
// running once per index on success and land results in pre-indexed
// slots, so the output is independent of schedule and of the worker
// count, which Run takes from GOMAXPROCS. A panic in fn fails only the
// request, build or view that ran it: each worker recovers it (Catch)
// and Run returns it as a *PanicError.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered by Catch: the value passed to panic
// and the stack of the goroutine that raised it.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Catch runs fn and returns the panic it raised, if any, as a
// *PanicError; nil when fn returned normally.
func Catch(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Run calls fn(i) for every i in [0,n) across min(GOMAXPROCS, n)
// workers and returns that width (1 for the serial loop, which runs in
// the caller's goroutine in index order). Every worker polls ctx
// between items and stops claiming work once it is done; an item
// already started finishes. A panic in fn stops every worker from
// claiming more, and after the join Run returns the first one as a
// *PanicError, ahead of ctx.Err(). On any error the caller must discard
// its partial output.
func Run(ctx context.Context, n int, fn func(i int)) (workers int, err error) {
	workers = max(1, min(runtime.GOMAXPROCS(0), n))
	done := ctx.Done()
	var next atomic.Int64
	var failed atomic.Bool
	var perr error
	work := func() {
		err := Catch(func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		})
		if err != nil {
			next.Store(int64(n)) // no worker claims another item
			if failed.CompareAndSwap(false, true) {
				perr = err
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is the first worker, at width 1 the only one
	wg.Wait()
	if perr != nil {
		return workers, perr
	}
	return workers, ctx.Err()
}
