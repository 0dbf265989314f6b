package pool

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// atProcs runs fn with GOMAXPROCS, the width Run takes, at n.
func atProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestRunCoversEveryIndex(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			hits := make([]int32, n)
			var mu sync.Mutex
			var workers int
			var err error
			atProcs(procs, func() {
				workers, err = Run(context.Background(), n, func(i int) {
					mu.Lock()
					hits[i]++
					mu.Unlock()
				})
			})
			if err != nil {
				t.Fatalf("procs=%d n=%d: %v", procs, n, err)
			}
			if want := max(1, min(procs, n)); workers != want {
				t.Errorf("procs=%d n=%d: width %d, want %d", procs, n, workers, want)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("procs=%d n=%d: index %d ran %d times", procs, n, i, h)
				}
			}
		}
	}
}

func TestRunSerialIsInOrder(t *testing.T) {
	var order []int
	atProcs(1, func() {
		if _, err := Run(context.Background(), 5, func(i int) { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("serial order = %v", order)
	}
}

// settledGoroutines returns the goroutine count once it is at most
// want, or after a second: a worker that has signalled the join may
// still be returning.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// explodeAt panics at index 3; its name is what the recovered stack
// must show.
func explodeAt(i int) {
	if i == 3 {
		panic("boom at 3")
	}
}

// TestRunReturnsWorkerPanic: a panic at one index comes back from Run
// as a *PanicError carrying the same value at every width, with a stack
// that names the panicking function, after every worker has stopped.
func TestRunReturnsWorkerPanic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		before := runtime.NumGoroutine()
		var err error
		atProcs(procs, func() { _, err = Run(context.Background(), 100, explodeAt) })
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("procs=%d: Run returned %v, want a *PanicError", procs, err)
		}
		if pe.Value != "boom at 3" {
			t.Errorf("procs=%d: panic value %v", procs, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "pool.explodeAt") {
			t.Errorf("procs=%d: stack does not name the panicking function:\n%s", procs, pe.Stack)
		}
		if err.Error() != "panic: boom at 3" {
			t.Errorf("procs=%d: message %q", procs, err.Error())
		}
		if after := settledGoroutines(before); after > before {
			t.Errorf("procs=%d: %d goroutines before Run, %d after", procs, before, after)
		}
	}
}

// TestRunPanicBeatsCancel: a panic is reported ahead of the context's
// error when both happen in one run.
func TestRunPanicBeatsCancel(t *testing.T) {
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var err error
		atProcs(procs, func() {
			_, err = Run(ctx, 10, func(i int) {
				cancel()
				panic("after cancel")
			})
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("procs=%d: Run returned %v, want the panic", procs, err)
		}
	}
}

func TestRunCancelled(t *testing.T) {
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		var mu sync.Mutex
		var err error
		atProcs(procs, func() {
			_, err = Run(ctx, 1000, func(i int) {
				mu.Lock()
				ran++
				mu.Unlock()
				cancel()
			})
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("procs=%d: Run returned %v, want context.Canceled", procs, err)
		}
		if ran > procs {
			t.Errorf("procs=%d: %d items ran after the first cancelled the run", procs, ran)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := Run(ctx, 3, func(int) { t.Error("an item ran under an expired context") }); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired context: Run returned %v", err)
	}
}

func TestCatch(t *testing.T) {
	if err := Catch(func() {}); err != nil {
		t.Errorf("Catch of a normal return = %v", err)
	}
	err := Catch(func() { panic(errors.New("inner")) })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value.(error).Error() != "inner" || len(pe.Stack) == 0 {
		t.Errorf("Catch of a panic = %#v", err)
	}
}
