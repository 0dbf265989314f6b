package colarm

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"colarm/internal/datagen"
)

// quarterChessEngine builds the engine cancellation tests race against:
// quarter-scale chess (dense, closed-itemset-heavy) at a primary
// support high enough to leave real mining work per query.
func quarterChessEngine(t testing.TB) *Engine {
	t.Helper()
	d, err := datagen.Generate(datagen.Scaled(datagen.ChessConfig(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(&Dataset{rel: d}, Options{PrimarySupport: 0.70})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPreCancelledContext checks every plan, serial and parallel,
// returns context.Canceled without mining when its context is already
// dead on entry.
func TestPreCancelledContext(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs) // every fan-out sizes itself from it
		eng, err := Open(ds, Options{PrimarySupport: 0.18})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Plan{Auto, SEV, SVS, SSEV, SSVS, SSEUV, ARM} {
			q := Query{
				Range:         map[string][]string{"Location": {"Seattle"}},
				MinSupport:    0.5,
				MinConfidence: 0.5,
				Plan:          p,
			}
			res, err := eng.MineContext(ctx, q)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("procs=%d plan=%v: err = %v, want context.Canceled", procs, p, err)
			}
			if res != nil {
				t.Errorf("procs=%d plan=%v: got a result from a cancelled query", procs, p)
			}
		}
		if _, err := eng.MineQLContext(ctx, `REPORT LOCALIZED ASSOCIATION RULES FROM salary
			WHERE RANGE Location = (Seattle)
			HAVING minsupport = 50% AND minconfidence = 50%;`); !errors.Is(err, context.Canceled) {
			t.Errorf("procs=%d MineQLContext: err = %v, want context.Canceled", procs, err)
		}
		if _, err := eng.ExplainContext(ctx, Query{
			Range:         map[string][]string{"Location": {"Seattle"}},
			MinSupport:    0.5,
			MinConfidence: 0.5,
		}); !errors.Is(err, context.Canceled) {
			t.Errorf("procs=%d ExplainContext: err = %v, want context.Canceled", procs, err)
		}
	}
}

// TestDeadlineMidQuery runs a deliberately heavy query under a 1ms
// deadline: it must abort mid-execution with context.DeadlineExceeded
// instead of running to completion.
func TestDeadlineMidQuery(t *testing.T) {
	eng := quarterChessEngine(t)
	q := Query{
		Range:         map[string][]string{"f00": {"f001"}},
		MinConfidence: 0.5,
	}
	// Thresholds picked so each plan's baseline run is comfortably
	// slower than the deadline (the dense subset's rule population
	// explodes as minsupport drops; ARM explodes fastest).
	for p, minSupp := range map[Plan]float64{ARM: 0.85, SEV: 0.80} {
		q.Plan, q.MinSupport = p, minSupp
		// Baseline: the query is genuinely slower than the deadline.
		start := time.Now()
		if _, err := eng.Mine(q); err != nil {
			t.Fatalf("%v baseline: %v", p, err)
		}
		baseline := time.Since(start)
		if baseline < 5*time.Millisecond {
			t.Skipf("%v baseline %v too fast to outrun a 1ms deadline", p, baseline)
		}

		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		start = time.Now()
		res, err := eng.MineContext(ctx, q)
		aborted := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: err = %v, want context.DeadlineExceeded", p, err)
		}
		if res != nil {
			t.Fatalf("%v: got a result despite the deadline", p)
		}
		if aborted >= baseline {
			t.Errorf("%v: aborted run took %v, no faster than the %v baseline", p, aborted, baseline)
		}
	}
}

// TestCancelMidQuery fires the cancellation while the query is running
// (serial and parallel) and checks it surfaces promptly as
// context.Canceled.
func TestCancelMidQuery(t *testing.T) {
	d, err := datagen.Generate(datagen.Scaled(datagen.ChessConfig(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Range:         map[string][]string{"f00": {"f001"}},
		MinSupport:    0.85,
		MinConfidence: 0.5,
		Plan:          ARM,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs) // every fan-out sizes itself from it
		eng, err := Open(&Dataset{rel: d}, Options{PrimarySupport: 0.70})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
		res, err := eng.MineContext(ctx, q)
		if err == nil {
			// The query finished before the cancel landed; nothing to
			// assert beyond a sane result.
			if res == nil {
				t.Errorf("procs=%d: nil result without error", procs)
			}
			cancel()
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		if res != nil {
			t.Errorf("procs=%d: partial result leaked from a cancelled query", procs)
		}
	}
}

// TestBackgroundWrappersStillWork pins the compatibility contract: the
// context-free methods are Background wrappers and keep working.
func TestBackgroundWrappersStillWork(t *testing.T) {
	eng := salaryEngine(t)
	q := Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.5,
		MinConfidence: 0.5,
	}
	res, err := eng.Mine(q)
	if err != nil || len(res.Rules) == 0 {
		t.Fatalf("Mine: %v (%d rules)", err, len(res.Rules))
	}
	ctxRes, err := eng.MineContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctxRes.Rules) != len(res.Rules) {
		t.Errorf("MineContext found %d rules, Mine found %d", len(ctxRes.Rules), len(res.Rules))
	}
}
