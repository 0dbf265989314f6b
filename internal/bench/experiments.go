package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/plans"
)

// Fig8Row is one point of the Figure 8 curve.
type Fig8Row struct {
	Threshold float64
	CFIs      int
}

// RunFig8 mines the dataset at each primary threshold of the spec's
// sweep and reports the closed-frequent-itemset counts (E1).
func (e *Env) RunFig8() ([]Fig8Row, error) {
	sp := e.Index.Space
	out := make([]Fig8Row, 0, len(e.Spec.Fig8Sweep))
	for _, th := range e.Spec.Fig8Sweep {
		res, err := charm.MineSupport(e.Dataset, sp, th)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8Row{Threshold: th, CFIs: len(res.Closed)})
	}
	return out, nil
}

// GridCell is one bar group of Figures 9-11: a (|DQ|, minsupp) setting
// with the average execution time of every plan and the optimizer's
// majority choice.
type GridCell struct {
	DQFrac  float64
	MinSupp float64
	MinConf float64
	Runs    int

	AvgTime   map[plans.Kind]time.Duration
	Chosen    plans.Kind // optimizer's majority choice
	Fastest   plans.Kind // measured-best plan on average
	ChosenAvg time.Duration
	BestAvg   time.Duration
}

// Regret is the extra cost fraction of the chosen plan vs the fastest.
func (c GridCell) Regret() float64 {
	if c.BestAvg <= 0 {
		return 0
	}
	return float64(c.ChosenAvg-c.BestAvg) / float64(c.BestAvg)
}

// Correct reports whether the optimizer's choice was (effectively) the
// best plan: either identical or within tol extra cost.
func (c GridCell) Correct(tol float64) bool {
	return c.Chosen == c.Fastest || c.Regret() <= tol
}

// RunPlanGrid measures the average execution time of all six plans over
// runsPer random focal subsets for every (DQFrac, minsupp) combination
// at a fixed minconf (E2-E4). The optimizer's choice is recorded per
// run and the majority reported per cell (the arrows of Figures 9-11).
func (e *Env) RunPlanGrid(minConf float64, runsPer int, rng *rand.Rand) ([]GridCell, error) {
	var cells []GridCell
	for _, frac := range e.Spec.DQFracs {
		for _, ms := range e.Spec.MinSupps {
			cell, err := e.runCell(frac, ms, minConf, runsPer, rng)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

func (e *Env) runCell(frac, minSupp, minConf float64, runsPer int, rng *rand.Rand) (GridCell, error) {
	cell := GridCell{
		DQFrac:  frac,
		MinSupp: minSupp,
		MinConf: minConf,
		Runs:    runsPer,
		AvgTime: map[plans.Kind]time.Duration{},
	}
	chosenVotes := map[plans.Kind]int{}
	total := map[plans.Kind]time.Duration{}
	for run := 0; run < runsPer; run++ {
		reg := e.RandomFocalSubset(rng, frac)
		q := e.QueryFor(reg, minSupp, minConf)
		choice, _ := e.Model.Choose(e.Executor.Focus(e.Surface, q), q)
		chosenVotes[choice]++
		for _, k := range plans.Kinds() {
			res, err := e.Executor.Run(k, e.Surface, q)
			if err != nil {
				return cell, err
			}
			total[k] += res.Stats.Duration
		}
	}
	for k, d := range total {
		cell.AvgTime[k] = d / time.Duration(runsPer)
	}
	// Majority optimizer choice.
	bestVotes := -1
	for _, k := range plans.Kinds() {
		if v := chosenVotes[k]; v > bestVotes {
			bestVotes = v
			cell.Chosen = k
		}
	}
	// Measured fastest.
	first := true
	for _, k := range plans.Kinds() {
		if first || cell.AvgTime[k] < cell.BestAvg {
			cell.Fastest = k
			cell.BestAvg = cell.AvgTime[k]
			first = false
		}
	}
	cell.ChosenAvg = cell.AvgTime[cell.Chosen]
	return cell, nil
}

// AccuracyResult summarizes E5 over a dataset's full 36-scenario grid.
type AccuracyResult struct {
	Dataset   string
	Scenarios int
	Correct   int
	// MaxMissRegret is the largest extra-cost fraction among wrong
	// picks (the paper reports <= 5%).
	MaxMissRegret float64
	Cells         []GridCell
}

// Accuracy is the fraction of scenarios with a correct pick.
func (a AccuracyResult) Accuracy() float64 {
	if a.Scenarios == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.Scenarios)
}

// RunAccuracy sweeps the full (DQ × minsupp × minconf) grid — 36
// scenarios per dataset, 108 over the three — and scores the optimizer
// (E5). A pick is correct when the chosen plan is the measured-fastest
// or within tol extra cost of it.
func (e *Env) RunAccuracy(runsPer int, tol float64, rng *rand.Rand) (AccuracyResult, error) {
	res := AccuracyResult{Dataset: e.Spec.Name}
	for _, frac := range e.Spec.DQFracs {
		for _, ms := range e.Spec.MinSupps {
			for _, mc := range e.Spec.MinConfs {
				cell, err := e.runCell(frac, ms, mc, runsPer, rng)
				if err != nil {
					return res, err
				}
				res.Scenarios++
				if cell.Correct(tol) {
					res.Correct++
				} else if r := cell.Regret(); r > res.MaxMissRegret {
					res.MaxMissRegret = r
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	return res, nil
}

// GainRow is one bar group of Figure 12: the percentage execution-cost
// gain of each optimized plan over the baseline S-E-V plan.
type GainRow struct {
	Dataset string
	Gains   map[plans.Kind]float64 // S-VS, SS-E-V, SS-VS, SS-E-U-V
}

// Gains aggregates Figure 12 from measured grid cells: for plan P,
// gain = (T_SEV - T_P) / T_SEV averaged over cells.
func Gains(dataset string, cells []GridCell) GainRow {
	row := GainRow{Dataset: dataset, Gains: map[plans.Kind]float64{}}
	optimized := []plans.Kind{plans.SVS, plans.SSEV, plans.SSVS, plans.SSEUV}
	n := 0
	sums := map[plans.Kind]float64{}
	for _, c := range cells {
		base := c.AvgTime[plans.SEV]
		if base <= 0 {
			continue
		}
		n++
		for _, k := range optimized {
			sums[k] += float64(base-c.AvgTime[k]) / float64(base)
		}
	}
	if n > 0 {
		for _, k := range optimized {
			row.Gains[k] = 100 * sums[k] / float64(n)
		}
	}
	return row
}

// Fig13Row reports, for one focal subset size, the average counts of
// locally frequent CFIs split into fresh-local (hidden at the global
// reference minsupport) and repeated-global ones (E7).
type Fig13Row struct {
	DQFrac         float64
	FreshLocal     float64
	RepeatedGlobal float64
}

// RunLocalVsGlobal measures Figure 13: for each subset size, random
// focal subsets are drawn and every prestored CFI that qualifies at the
// figure's local minsupport is classified by whether its global support
// reaches the dataset's reference global minsupport.
func (e *Env) RunLocalVsGlobal(runsPer int, rng *rand.Rand) []Fig13Row {
	idx := e.Index
	m := e.Dataset.NumRecords()
	globalNeed := charm.CountFor(e.Spec.GlobalMinSupp, m)
	localMinSupp := e.Spec.MinSupps[0] // the figure's local threshold

	var rows []Fig13Row
	fracs := append([]float64(nil), e.Spec.DQFracs...)
	sort.Float64s(fracs) // ascending, as in the figure (1% .. 50%)
	for _, frac := range fracs {
		var fresh, repeated int
		for run := 0; run < runsPer; run++ {
			reg := e.RandomFocalSubset(rng, frac)
			dq := idx.SubsetBitmap(reg)
			size := dq.Count()
			if size == 0 {
				continue
			}
			need := charm.CountFor(localMinSupp, size)
			for id := 0; id < idx.ITTree.Size(); id++ {
				c := idx.ITTree.Set(id)
				if len(c.Items) < 2 {
					continue
				}
				if !reg.Intersects(idx.Boxes[id]) {
					continue
				}
				if bitset.AndCount(c.Tids, dq) < need {
					continue
				}
				if c.Support >= globalNeed {
					repeated++
				} else {
					fresh++
				}
			}
		}
		rows = append(rows, Fig13Row{
			DQFrac:         frac,
			FreshLocal:     float64(fresh) / float64(runsPer),
			RepeatedGlobal: float64(repeated) / float64(runsPer),
		})
	}
	return rows
}

// SimpsonFinding is one locally prominent, globally hidden CFI from the
// Section 5.3 style analysis (E8).
type SimpsonFinding struct {
	Items       string
	LocalSupp   float64
	GlobalSupp  float64
	LocalCount  int
	GlobalCount int
}

// SimpsonReport summarizes E8 for one subpopulation selection.
type SimpsonReport struct {
	RangeAttr   string
	RangeValue  string
	SubsetSize  int
	LocalCFIs   int // CFIs qualifying locally at the threshold
	HiddenCFIs  int // of those, globally below the hidden threshold
	Examples    []SimpsonFinding
	LocalThresh float64
	HideThresh  float64
}

// RunSimpson reproduces the paper's mushroom anecdote: select the
// subpopulation of one attribute value and list the CFIs that qualify
// locally at localThresh but sit below hideThresh globally — rules
// hidden in the global context.
func (e *Env) RunSimpson(attrName, valueLabel string, localThresh, hideThresh float64, maxExamples int) (*SimpsonReport, error) {
	idx := e.Index
	ai := e.Dataset.AttrIndex(attrName)
	if ai < 0 {
		return nil, fmt.Errorf("bench: unknown attribute %q", attrName)
	}
	v := e.Dataset.Attrs[ai].ValueIndex(valueLabel)
	if v < 0 {
		return nil, fmt.Errorf("bench: attribute %q has no value %q", attrName, valueLabel)
	}
	reg := itemset.RegionFor(idx.Space)
	if err := reg.Restrict(ai, []int{v}); err != nil {
		return nil, err
	}
	dq := idx.SubsetBitmap(reg)
	size := dq.Count()
	rep := &SimpsonReport{
		RangeAttr: attrName, RangeValue: valueLabel, SubsetSize: size,
		LocalThresh: localThresh, HideThresh: hideThresh,
	}
	if size == 0 {
		return rep, nil
	}
	need := charm.CountFor(localThresh, size)
	m := e.Dataset.NumRecords()
	for id := 0; id < idx.ITTree.Size(); id++ {
		c := idx.ITTree.Set(id)
		if len(c.Items) < 2 {
			continue
		}
		local := bitset.AndCount(c.Tids, dq)
		if local < need {
			continue
		}
		rep.LocalCFIs++
		globalSupp := float64(c.Support) / float64(m)
		if globalSupp <= hideThresh {
			rep.HiddenCFIs++
			if len(rep.Examples) < maxExamples {
				rep.Examples = append(rep.Examples, SimpsonFinding{
					Items:       c.Items.Format(idx.Space),
					LocalSupp:   float64(local) / float64(size),
					GlobalSupp:  globalSupp,
					LocalCount:  local,
					GlobalCount: c.Support,
				})
			}
		}
	}
	return rep, nil
}
