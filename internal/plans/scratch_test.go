package plans

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"colarm/internal/obs"
	"colarm/internal/pool"
	"colarm/internal/rules"
)

// runReleased answers q as the engine does: Focus, run, copy out what
// the caller keeps, Release. A failed run's scratch is not released.
func runReleased(ctx context.Context, ex *Executor, kind Kind, s *Surface, q *Query) (*Result, error) {
	f := ex.Focus(s, q)
	res, err := ex.RunContext(ctx, kind, f, q)
	if err != nil {
		return nil, err
	}
	out := &Result{Rules: cloneRules(res.Rules), Stats: res.Stats}
	out.Stats.Duration = 0
	f.Release()
	return out, nil
}

// cloneRules copies rules and their items out of the scratch they point
// into.
func cloneRules(rs []rules.Rule) []rules.Rule {
	out := make([]rules.Rule, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Antecedent = r.Antecedent.Clone()
		out[i].Consequent = r.Consequent.Clone()
	}
	return out
}

// TestScratchAfterFailedRun fails a run in its ELIMINATE and in its
// VERIFY fan-out — by a worker's panic and by a context cancelled from a
// worker — serially and at GOMAXPROCS 4. The failed run's scratch is
// dropped, and the next run, on recycled scratch, answers exactly as
// the run before the failure.
func TestScratchAfterFailedRun(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	s := NewSurface(idx)
	q := equivQueries(t, idx, idx.Space)[1]
	ex := NewExecutor(idx.Space)
	for _, procs := range []int{1, 4} {
		for _, op := range []obs.Op{obs.OpEliminate, obs.OpVerify} {
			for _, how := range []string{"panic", "cancel"} {
				var want, got *Result
				var err error
				atProcs(procs, func() { want, err = runReleased(context.Background(), ex, SEV, s, q) })
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				ex.workerFault = func(at obs.Op, i int) {
					if at == op && i == 0 {
						if how == "panic" {
							panic(fmt.Sprintf("injected in %v", op))
						}
						cancel()
					}
				}
				atProcs(procs, func() { _, err = runReleased(ctx, ex, SEV, s, q) })
				ex.workerFault = nil
				cancel()
				var pe *pool.PanicError
				if how == "panic" && !errors.As(err, &pe) || how == "cancel" && !errors.Is(err, context.Canceled) {
					t.Fatalf("procs=%d %v %s: the failing run returned %v", procs, op, how, err)
				}
				atProcs(procs, func() { got, err = runReleased(context.Background(), ex, SEV, s, q) })
				if err != nil {
					t.Fatalf("procs=%d %v %s: the run after the failure: %v", procs, op, how, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("procs=%d %v %s: the run after the failure differs from the one before", procs, op, how)
				}
			}
		}
	}
}

// TestRerunOnOneFocalKeepsEarlierResult runs every plan on one Focal, as
// tests and benchmarks do: the first run draws on the Focal's scratch,
// every later one on a fresh one, so no result is overwritten by the
// next.
func TestRerunOnOneFocalKeepsEarlierResult(t *testing.T) {
	idx := salaryIndex(t, 0.18)
	s := NewSurface(idx)
	ex := NewExecutor(idx.Space)
	for qi, q := range equivQueries(t, idx, idx.Space) {
		f := ex.Focus(s, q)
		var results []*Result
		var copies [][]rules.Rule
		for _, k := range Kinds() {
			res, err := ex.RunContext(context.Background(), k, f, q)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
			copies = append(copies, cloneRules(res.Rules))
		}
		for i, res := range results {
			if !reflect.DeepEqual(res.Rules, copies[i]) {
				t.Errorf("query %d: %v's rules changed when later plans ran on the same Focal", qi, Kinds()[i])
			}
		}
		f.Release()
	}
}
