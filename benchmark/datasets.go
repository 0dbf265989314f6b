package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"colarm"
	"colarm/internal/datagen"
)

// datasetSeed fixes the generated datasets: -seed varies the traffic
// (regions, order, draws, ingested rows), never the data the engines
// index, so index sizes and set-up cost are the same for every seed.
const datasetSeed = 1

// fixture is one dataset the workloads run on: how it is generated,
// the primary support its engine is opened at, and the E5 threshold
// grid (EXPERIMENTS.md) queries against it draw from.
type fixture struct {
	name     string
	cfg      datagen.Config
	salary   bool // the built-in Table 1 dataset instead of cfg
	primary  float64
	minSupps []float64
	minConfs []float64
}

var e5MinConfs = []float64{0.85, 0.90, 0.95}

// The full-profile fixtures. Chess is indexed at primary 0.70 (~8 k
// CFIs) rather than the paper's 0.60 (~66 k): at 0.60 a forced MIP plan
// takes ~100 ms, too few requests per run for a steady p95 (README,
// sizing facts). PUMSB is the reduced profile (0.15 scale, higher
// thresholds): the full dataset takes minutes to index.
var (
	chessFull = fixture{name: "chess", cfg: datagen.ChessConfig(datasetSeed), primary: 0.70,
		minSupps: []float64{0.80, 0.85, 0.90}, minConfs: e5MinConfs}
	mushroomFull = fixture{name: "mushroom", cfg: datagen.MushroomConfig(datasetSeed), primary: 0.05,
		minSupps: []float64{0.70, 0.75, 0.80}, minConfs: e5MinConfs}
	pumsbReduced = fixture{name: "pumsb", cfg: datagen.Scaled(datagen.PUMSBConfig(datasetSeed), 0.15), primary: 0.92,
		minSupps: []float64{0.96, 0.97, 0.98}, minConfs: e5MinConfs}
)

// The -quick fixtures: salary and half-scale mushroom at a high
// primary, so every workload sets up in milliseconds.
var (
	salaryQuick = fixture{name: "salary", salary: true, primary: 0.18,
		minSupps: []float64{0.30, 0.40, 0.50}, minConfs: []float64{0.50, 0.60, 0.70}}
	mushroomQuick = fixture{name: "mushroom", cfg: datagen.Scaled(datagen.MushroomConfig(datasetSeed), 0.5), primary: 0.30,
		minSupps: []float64{0.70, 0.75, 0.80}, minConfs: e5MinConfs}
)

// withPrimary returns the fixture opened at another primary support.
func (f fixture) withPrimary(p float64) fixture {
	f.primary = p
	return f
}

// csv renders the fixture's generated dataset as CSV: the one form
// both the facade (colarm.ReadCSV) and the traced run's own kernel
// index (relation via mip.Build) are loaded from, so both see the same
// value dictionaries.
func (f fixture) csv() ([]byte, error) {
	if f.salary {
		ds, err := colarm.Salary()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	rel, err := datagen.Generate(f.cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", f.name, err)
	}
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// table is the client's own column view of a dataset, used to draw
// focal regions and ingest rows without reaching into the engine.
type table struct {
	fixture
	ds     *colarm.Dataset
	attrs  []string
	values [][]string // per attribute, in axis order
	cols   [][]int32  // cols[a][r] = value index of record r on attribute a
}

func newTable(f fixture, ds *colarm.Dataset) (*table, error) {
	t := &table{fixture: f, ds: ds, attrs: ds.Attributes()}
	index := make([]map[string]int32, len(t.attrs))
	for a, name := range t.attrs {
		vals, err := ds.Values(name)
		if err != nil {
			return nil, err
		}
		t.values = append(t.values, vals)
		index[a] = make(map[string]int32, len(vals))
		for v, label := range vals {
			index[a][label] = int32(v)
		}
		t.cols = append(t.cols, make([]int32, ds.NumRecords()))
	}
	for r := 0; r < ds.NumRecords(); r++ {
		for a, label := range ds.Record(r) {
			t.cols[a][r] = index[a][label]
		}
	}
	return t, nil
}

func (t *table) numRecords() int { return len(t.cols[0]) }

// record returns record r in the label form /v1/ingest takes.
func (t *table) record(r int) map[string]string {
	row := make(map[string]string, len(t.attrs))
	for a, name := range t.attrs {
		row[name] = t.values[a][t.cols[a][r]]
	}
	return row
}

// focalRange draws a focal subset of about frac of the records by the
// paper's method (§5.1): walk the attributes in random order and
// restrict each to the contiguous value window whose record count
// lands closest to the target, until the subset is within 1.5x of it.
// Undershooting is penalised twice as much as overshooting, and windows
// under half the target are never taken, so subsets stay non-degenerate.
func (t *table) focalRange(rng *rand.Rand, frac float64) map[string][]string {
	m := t.numRecords()
	target := int(frac * float64(m))
	if target < 1 {
		target = 1
	}
	in := make([]bool, m)
	for r := range in {
		in[r] = true
	}
	size := m
	sel := map[string][]string{}
	for _, a := range rng.Perm(len(t.attrs)) {
		if size <= target*3/2 {
			break
		}
		card := len(t.values[a])
		if card < 2 {
			continue
		}
		counts := make([]int, card)
		for r, ok := range in {
			if ok {
				counts[t.cols[a][r]]++
			}
		}
		bestLo, bestHi, bestSum, bestDist := -1, -1, 0, 0
		start := rng.Intn(card)
		for off := 0; off < card; off++ {
			lo := (start + off) % card
			sum := 0
			for hi := lo; hi < card; hi++ {
				sum += counts[hi]
				if 2*sum < target {
					continue // degenerate: a handful of records explodes into rules
				}
				dist := sum - target
				if dist < 0 {
					dist = -2 * dist
				}
				if bestLo < 0 || dist < bestDist {
					bestLo, bestHi, bestSum, bestDist = lo, hi, sum, dist
				}
			}
		}
		if bestLo < 0 || bestSum == size {
			continue
		}
		sel[t.attrs[a]] = t.values[a][bestLo : bestHi+1]
		for r, ok := range in {
			if v := int(t.cols[a][r]); ok && (v < bestLo || v > bestHi) {
				in[r] = false
			}
		}
		size = bestSum
	}
	return sel
}
