// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5). It is shared by the
// colarm-bench command and the repository's Go benchmarks.
//
// Experiment index (see DESIGN.md):
//
//	E1  Figure 8   closed-frequent-itemset counts vs primary threshold
//	E2  Figure 9   plan execution costs, chess grid
//	E3  Figure 10  plan execution costs, mushroom grid
//	E4  Figure 11  plan execution costs, PUMSB grid
//	E5  §5.1       optimizer plan-selection accuracy over 108 scenarios
//	E6  Figure 12  % gains of the optimized plans over S-E-V
//	E7  Figure 13  fresh-local vs repeated-global CFI counts
//	E8  §5.3       Simpson's-paradox anecdote on mushroom
package bench

import (
	"fmt"
	"math/rand"

	"colarm/internal/bitset"
	"colarm/internal/cost"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/relation"
)

// DatasetSpec binds a generated dataset to the paper's experimental
// parameters for it.
type DatasetSpec struct {
	Name    string
	Config  datagen.Config
	Primary float64 // primary support for the MIP-index

	// The minsupport values of the dataset's plan-cost figure
	// (Figures 9-11) and the shared minconfidence values.
	MinSupps []float64
	MinConfs []float64
	// DQFracs are the focal subset sizes as fractions of the dataset.
	DQFracs []float64
	// GlobalMinSupp is the "reasonable global minsupport" used to
	// classify fresh-local vs repeated-global CFIs in Figure 13.
	GlobalMinSupp float64
	// Fig8Sweep lists the primary thresholds of the Figure 8 curve.
	Fig8Sweep []float64
}

// Specs returns the three benchmark dataset specifications. With
// full=true the paper-scale parameters are used; otherwise a reduced
// profile that keeps `go test -bench` runs short (smaller record counts
// and slightly higher thresholds; the qualitative shapes are
// preserved).
func Specs(full bool, seed int64) []DatasetSpec {
	chess := DatasetSpec{
		Name:          "chess",
		Config:        datagen.ChessConfig(seed),
		Primary:       0.60,
		MinSupps:      []float64{0.80, 0.85, 0.90},
		MinConfs:      []float64{0.85, 0.90, 0.95},
		DQFracs:       []float64{0.50, 0.20, 0.10, 0.01},
		GlobalMinSupp: 0.80,
		Fig8Sweep:     []float64{0.90, 0.80, 0.70, 0.60},
	}
	mushroom := DatasetSpec{
		Name:          "mushroom",
		Config:        datagen.MushroomConfig(seed),
		Primary:       0.05,
		MinSupps:      []float64{0.70, 0.75, 0.80},
		MinConfs:      []float64{0.85, 0.90, 0.95},
		DQFracs:       []float64{0.50, 0.20, 0.10, 0.01},
		GlobalMinSupp: 0.60,
		Fig8Sweep:     []float64{0.40, 0.20, 0.10, 0.05},
	}
	pumsb := DatasetSpec{
		Name:          "pumsb",
		Config:        datagen.PUMSBConfig(seed),
		Primary:       0.80,
		MinSupps:      []float64{0.85, 0.88, 0.91},
		MinConfs:      []float64{0.85, 0.90, 0.95},
		DQFracs:       []float64{0.50, 0.20, 0.10, 0.01},
		GlobalMinSupp: 0.85,
		Fig8Sweep:     []float64{0.95, 0.90, 0.85, 0.80},
	}
	if !full {
		chess.Config = datagen.Scaled(chess.Config, 0.5)
		chess.Primary = 0.70
		chess.MinSupps = []float64{0.80, 0.85, 0.90}
		chess.Fig8Sweep = []float64{0.90, 0.85, 0.80, 0.75, 0.70}

		mushroom.Config = datagen.Scaled(mushroom.Config, 0.5)
		mushroom.Primary = 0.10
		mushroom.Fig8Sweep = []float64{0.40, 0.30, 0.20, 0.10}

		pumsb.Config = datagen.Scaled(pumsb.Config, 0.15)
		pumsb.Primary = 0.88
		pumsb.MinSupps = []float64{0.92, 0.94, 0.96}
		pumsb.GlobalMinSupp = 0.92
		pumsb.Fig8Sweep = []float64{0.96, 0.94, 0.92, 0.90, 0.88}
	}
	return []DatasetSpec{chess, mushroom, pumsb}
}

// SpecByName finds a spec by dataset name.
func SpecByName(specs []DatasetSpec, name string) (DatasetSpec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("bench: unknown dataset %q", name)
}

// Env is a prepared experimental environment: the generated dataset,
// its MIP-index built at the spec's primary support, and the cost model
// and executor the engine wires around an index. Experiments price a
// query with Model.Choose over Executor.Focus(Surface, q) and run a
// forced plan with Executor.Run(kind, Surface, q) — the model and the
// plans the engine serves, without its delta store or metrics.
type Env struct {
	Spec     DatasetSpec
	Dataset  *relation.Dataset
	Index    *mip.Index
	Model    *cost.Model
	Executor *plans.Executor
	// Surface presents Index to the executor and the model.
	Surface *plans.Surface
}

// Setup generates the dataset and builds the environment over it.
func Setup(spec DatasetSpec) (*Env, error) {
	d, err := datagen.Generate(spec.Config)
	if err != nil {
		return nil, err
	}
	return newEnv(spec, d)
}

// newEnv builds the MIP-index over d at the spec's primary support.
func newEnv(spec DatasetSpec, d *relation.Dataset) (*Env, error) {
	idx, err := mip.Build(d, mip.Options{PrimarySupport: spec.Primary})
	if err != nil {
		return nil, err
	}
	return &Env{
		Spec:     spec,
		Dataset:  d,
		Index:    idx,
		Model:    cost.NewModel(idx),
		Executor: plans.NewExecutor(idx.Space),
		Surface:  plans.NewSurface(idx),
	}, nil
}

// RandomFocalSubset builds a region whose record count approximates
// frac·m by greedily restricting random attributes to contiguous value
// windows, mirroring the paper's methodology of submitting fixed-size
// focal subsets over different areas of the dataset.
func (e *Env) RandomFocalSubset(rng *rand.Rand, frac float64) *itemset.Region {
	idx := e.Index
	m := e.Dataset.NumRecords()
	target := int(frac * float64(m))
	if target < 1 {
		target = 1
	}
	reg := itemset.RegionFor(idx.Space)
	cur := bitset.New(m)
	cur.Fill()
	curSize := m

	attrs := rng.Perm(idx.Space.NumAttrs())
	for _, a := range attrs {
		if curSize <= target*3/2 {
			break
		}
		card := idx.Space.Cardinality(a)
		if card < 2 {
			continue
		}
		// Count, per value of a, the records of the current subset.
		counts := make([]int, card)
		for v := 0; v < card; v++ {
			counts[v] = bitset.AndCount(cur, idx.Tidsets[idx.Space.ItemOf(a, v)])
		}
		// Choose the contiguous window whose sum lands closest to the
		// target (bounded below by it when possible), starting from a
		// random offset for variety.
		bestLo, bestHi, bestSum := -1, -1, -1
		start := rng.Intn(card)
		for off := 0; off < card; off++ {
			lo := (start + off) % card
			sum := 0
			for hi := lo; hi < card; hi++ {
				sum += counts[hi]
				if sum == 0 {
					continue
				}
				if better(sum, bestSum, target) {
					bestLo, bestHi, bestSum = lo, hi, sum
				}
			}
		}
		if bestLo < 0 || bestSum == curSize {
			continue
		}
		vals := make([]int, 0, bestHi-bestLo+1)
		dim := bitset.New(m)
		for v := bestLo; v <= bestHi; v++ {
			vals = append(vals, v)
			dim.Or(idx.Tidsets[idx.Space.ItemOf(a, v)])
		}
		if err := reg.Restrict(a, vals); err != nil {
			continue // cannot happen; defensive
		}
		cur.And(dim)
		curSize = cur.Count()
		if curSize == 0 {
			break
		}
	}
	return reg
}

// better prefers sums at or above target but close to it; below-target
// sums are acceptable when nothing above target exists.
func better(sum, best, target int) bool {
	if best < 0 {
		return true
	}
	da, db := distance(sum, target), distance(best, target)
	return da < db
}

func distance(sum, target int) int {
	d := sum - target
	if d < 0 {
		// Undershooting is penalized slightly more than overshooting so
		// subsets stay non-degenerate.
		return -d * 2
	}
	return d
}

// QueryFor assembles an executable query for a region and thresholds.
// Consequents are capped at one item — the classic rule form — so the
// measured costs reflect the operators rather than an unbounded
// combinatorial rule expansion on degenerate (near-homogeneous) focal
// subsets.
func (e *Env) QueryFor(reg *itemset.Region, minSupp, minConf float64) *plans.Query {
	return &plans.Query{
		Region:        reg,
		MinSupport:    minSupp,
		MinConfidence: minConf,
		MaxConsequent: 1,
	}
}
