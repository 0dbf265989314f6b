package bench

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/plans"
)

// TestSerialParallelEquivalenceOnPresets runs every plan kind on every
// preset benchmark dataset (chess, mushroom, PUMSB — scaled down to
// keep the suite fast) at GOMAXPROCS 1 and at GOMAXPROCS (floored at
// 4), which every query sizes its fan-out from, and asserts
// identical rule sets and operator counters. This is the dataset-scale
// complement of the salary-table equivalence test in internal/plans.
func TestSerialParallelEquivalenceOnPresets(t *testing.T) {
	procs := max(4, runtime.GOMAXPROCS(0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range Specs(false, 7) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// PUMSB is far denser than the other two; shrink it harder
			// so the full kind × frac × workers sweep stays fast.
			extra := 0.2
			if spec.Name == "pumsb" {
				extra = 0.05
			}
			spec.Config = datagen.Scaled(spec.Config, extra)
			d, err := datagen.Generate(spec.Config)
			if err != nil {
				t.Fatal(err)
			}
			env, err := newEnv(spec, d)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			minSupp := spec.MinSupps[len(spec.MinSupps)-1]
			minConf := spec.MinConfs[len(spec.MinConfs)-1]
			for _, frac := range []float64{0.5, 0.1} {
				q := env.QueryFor(env.RandomFocalSubset(rng, frac), minSupp, minConf)
				for _, k := range plans.Kinds() {
					runtime.GOMAXPROCS(1)
					want, err := env.Executor.Run(k, env.Surface, q)
					if err != nil {
						t.Fatalf("%v frac=%.2f serial: %v", k, frac, err)
					}
					runtime.GOMAXPROCS(procs)
					got, err := env.Executor.Run(k, env.Surface, q)
					if err != nil {
						t.Fatalf("%v frac=%.2f parallel: %v", k, frac, err)
					}
					if !reflect.DeepEqual(got.Rules, want.Rules) {
						t.Errorf("%v frac=%.2f: rules diverge (%d vs %d)",
							k, frac, len(got.Rules), len(want.Rules))
					}
					ws, gs := want.Stats, got.Stats
					ws.Duration, gs.Duration = 0, 0
					if ws != gs {
						t.Errorf("%v frac=%.2f: stats diverge\nserial:   %+v\nparallel: %+v",
							k, frac, ws, gs)
					}
				}
			}
		})
	}
}
