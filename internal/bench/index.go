package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"colarm/internal/core"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/rtree"
)

// The index benchmark measures the physical layers of the MIP-index in
// isolation: closure resolution on the IT-tree, exact lookup (the
// open-addressed item-word hash), supported R-tree region probes, the
// per-shard catalog mining cost, and the consolidation pause of a
// sharded engine. The consolidation rows share the shards benchmark's
// workload shape so BENCH_<pr>.json artifacts stay comparable across
// PRs. BENCH_8.json is the committed run that also measured the
// one-heap-object-per-node layout the slabs replaced; every row since is
// labelled "flat" to stay comparable with it.

// IndexKernelRow is the timing of one kernel. The minimum total across
// rounds is reported, in the tidset benchmark's style.
type IndexKernelRow struct {
	Layout  string  `json:"layout"`
	Impl    string  `json:"impl"` // what the kernel resolves with
	Ops     int     `json:"ops"`
	TotalNs int64   `json:"total_ns"`
	NsPerOp float64 `json:"ns_per_op"`
}

// ShardIndexRow aggregates the per-shard catalog minings a consolidation
// performed.
type ShardIndexRow struct {
	Shards int `json:"shards"`
	// IndexedCFIs sums the local CFIs over all shard catalogs.
	IndexedCFIs int `json:"indexed_cfis"`
	// TotalBuildNs sums every shard's threshold-1 mining;
	// MaxShardBuildNs is the slowest single shard — the critical path
	// when the minings run on parallel workers.
	TotalBuildNs    int64 `json:"total_build_ns"`
	MaxShardBuildNs int64 `json:"max_shard_build_ns"`
}

// ConsolidationRow is the rebuild pause of one shard count, directly
// comparable to the shards benchmark's rebuild_pause_ns.
type ConsolidationRow struct {
	Shards         int   `json:"shards"`
	Workers        int   `json:"workers"`
	RebuildPauseNs int64 `json:"rebuild_pause_ns"`
}

// IndexReport is the serialized artifact (BENCH_<pr>.json).
type IndexReport struct {
	Bench     string `json:"bench"`
	PR        int    `json:"pr"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Dataset   string `json:"dataset"`
	Records   int    `json:"records"`
	MIPs      int    `json:"mips"`

	Closure    []IndexKernelRow `json:"closure"`
	Lookup     []IndexKernelRow `json:"lookup"`
	RTreeProbe []IndexKernelRow `json:"rtree_probe"`

	// ShardIndexBuild rows come from the scatter dataset — a small item
	// space where the closure-merge catalog engages, so consolidations
	// mine per-shard catalogs. Consolidation rows come from
	// the main dataset and stay comparable with the shards benchmark.
	ScatterDataset  string             `json:"scatter_dataset"`
	ScatterRecords  int                `json:"scatter_records"`
	ShardIndexBuild []ShardIndexRow    `json:"shard_index_build"`
	Consolidation   []ConsolidationRow `json:"consolidation"`
}

// scatterSpecConfig is the per-shard catalog-mining workload: an item
// space small enough (6 attrs × 5 values = 30 items ≤ 48) that the
// collection's auto catalog picks the scatter path, with clustered
// records so per-shard threshold-1 mining stays bounded.
func scatterSpecConfig(seed int64) datagen.Config {
	attrs := make([]datagen.AttrSpec, 6)
	for a := range attrs {
		attrs[a] = datagen.AttrSpec{
			Name:        fmt.Sprintf("s%d", a),
			Cardinality: 5,
			Align:       []float64{0.85, 0.75, 0.65},
		}
	}
	return datagen.Config{
		Name:       "scatteridx",
		Records:    6000,
		Attrs:      attrs,
		Clusters:   []float64{0.4, 0.35, 0.25},
		Skew:       0.8,
		Prototypes: 64,
		Seed:       seed,
	}
}

// RunIndex builds the spec's dataset and measures the physical kernels,
// then replays the shards benchmark's
// age-and-consolidate cycle for each K in ks.
func RunIndex(spec DatasetSpec, ks []int, probes, iters, batches, batchRows int, seed int64) (*IndexReport, error) {
	if probes < 1 || iters < 1 || batches < 1 || batchRows < 1 {
		return nil, fmt.Errorf("bench: probes (%d), iters (%d), batches (%d) and batch rows (%d) must be positive",
			probes, iters, batches, batchRows)
	}
	env, err := Setup(spec)
	if err != nil {
		return nil, err
	}
	d := env.Dataset
	idx := env.Engine.Index

	rep := &IndexReport{
		Bench:     "index",
		PR:        CurrentPR,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Dataset:   spec.Name,
		Records:   d.NumRecords(),
		MIPs:      idx.NumMIPs(),
	}

	rng := rand.New(rand.NewSource(seed))
	closureProbes := closureProbeSets(rng, idx, probes)
	lookupProbes := lookupProbeSets(rng, idx, probes)
	regions := regionProbes(rng, idx.Space, probes)

	rep.Closure = append(rep.Closure, timeIndexKernel("slab scan (support desc)", iters, len(closureProbes), func() int {
		sink := 0
		for _, x := range closureProbes {
			if id, ok := idx.ITTree.ClosureID(x); ok {
				sink += id
			}
		}
		return sink
	}))
	rep.Lookup = append(rep.Lookup, timeIndexKernel("open-addressed item-word hash", iters, len(lookupProbes), func() int {
		sink := 0
		for _, x := range lookupProbes {
			if id, ok := idx.ITTree.LookupID(x); ok {
				sink += id
			}
		}
		return sink
	}))
	rep.RTreeProbe = append(rep.RTreeProbe, timeIndexKernel("supported region search", iters, len(regions), func() int {
		sink := 0
		for _, reg := range regions {
			idx.RTree.SupportedSearch(reg, idx.PrimaryCount, func(e rtree.Entry, rel itemset.Rel) bool {
				sink++
				return true
			})
		}
		return sink
	}))

	// Consolidation cycle, the shards benchmark's aging replayed per K:
	// build sharded engine, age it with sampled rows plus occasional
	// tombstones, consolidate.
	for _, k := range ks {
		eng, err := core.NewEngine(d, core.Options{
			PrimarySupport: spec.Primary,
			CheckMode:      plans.ScanCheck,
			Shards:         k,
			Workers:        runtime.GOMAXPROCS(0),
		})
		if err != nil {
			return nil, fmt.Errorf("bench: K=%d: %w", k, err)
		}
		wrng := rand.New(rand.NewSource(seed + int64(k)))
		for b := 0; b < batches; b++ {
			rows := make([][]int32, batchRows)
			for i := range rows {
				r := wrng.Intn(d.NumRecords())
				rec := make([]int32, d.NumAttrs())
				for a := range rec {
					rec[a] = int32(d.Value(r, a))
				}
				rows[i] = rec
			}
			var dels []int
			if wrng.Intn(2) == 0 {
				dels = append(dels, wrng.Intn(d.NumRecords()))
			}
			if _, err := eng.Ingest(rows, dels); err != nil {
				return nil, fmt.Errorf("bench: K=%d ingest: %w", k, err)
			}
		}
		t0 := time.Now()
		if _, err := eng.Rebuild(context.Background()); err != nil {
			return nil, fmt.Errorf("bench: K=%d rebuild: %w", k, err)
		}
		rep.Consolidation = append(rep.Consolidation, ConsolidationRow{
			Shards:         k,
			Workers:        runtime.GOMAXPROCS(0),
			RebuildPauseNs: time.Since(t0).Nanoseconds(),
		})
	}

	// Per-shard catalog minings, on the scatter dataset: the
	// consolidating (old) engine's collection holds the shard catalogs
	// the consolidation's pause paid for.
	sd, err := datagen.Generate(scatterSpecConfig(seed))
	if err != nil {
		return nil, err
	}
	rep.ScatterDataset = sd.Name
	rep.ScatterRecords = sd.NumRecords()
	for _, k := range ks {
		if k < 2 {
			continue // monolith: no shards, no per-shard catalogs
		}
		eng, err := core.NewEngine(sd, core.Options{
			PrimarySupport: 0.10,
			CheckMode:      plans.ScanCheck,
			Shards:         k,
			Workers:        runtime.GOMAXPROCS(0),
		})
		if err != nil {
			return nil, fmt.Errorf("bench: scatter K=%d: %w", k, err)
		}
		wrng := rand.New(rand.NewSource(seed + 1000 + int64(k)))
		for b := 0; b < batches; b++ {
			rows := make([][]int32, batchRows)
			for i := range rows {
				r := wrng.Intn(sd.NumRecords())
				rec := make([]int32, sd.NumAttrs())
				for a := range rec {
					rec[a] = int32(sd.Value(r, a))
				}
				rows[i] = rec
			}
			if _, err := eng.Ingest(rows, nil); err != nil {
				return nil, fmt.Errorf("bench: scatter K=%d ingest: %w", k, err)
			}
		}
		if _, err := eng.Rebuild(context.Background()); err != nil {
			return nil, fmt.Errorf("bench: scatter K=%d rebuild: %w", k, err)
		}
		stats := eng.ShardStats()
		if stats == nil {
			return nil, fmt.Errorf("bench: scatter K=%d: no shard stats", k)
		}
		row := ShardIndexRow{Shards: k}
		for _, st := range stats {
			row.IndexedCFIs += st.IndexedCFIs
			row.TotalBuildNs += st.IndexBuildNanos
			if st.IndexBuildNanos > row.MaxShardBuildNs {
				row.MaxShardBuildNs = st.IndexBuildNanos
			}
		}
		rep.ShardIndexBuild = append(rep.ShardIndexBuild, row)
	}
	return rep, nil
}

// timeIndexKernel replays fn iters times and keeps the cheapest round.
func timeIndexKernel(impl string, iters, ops int, fn func() int) IndexKernelRow {
	var best time.Duration
	sink := 0
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		sink += fn()
		el := time.Since(t0)
		if i == 0 || el < best {
			best = el
		}
	}
	_ = sink
	return IndexKernelRow{
		Layout:  "flat",
		Impl:    impl,
		Ops:     ops,
		TotalNs: best.Nanoseconds(),
		NsPerOp: float64(best.Nanoseconds()) / float64(ops),
	}
}

// closureProbeSets draws itemsets the closure kernel resolves: stored
// CFIs (identity closures), random subsets of stored CFIs (proper
// closures) and random small combinations (often unsupported).
func closureProbeSets(rng *rand.Rand, idx *mip.Index, n int) []itemset.Set {
	out := make([]itemset.Set, 0, n)
	k := idx.ITTree.Size()
	for len(out) < n {
		switch rng.Intn(3) {
		case 0:
			out = append(out, idx.ITTree.Items(rng.Intn(k)))
		case 1:
			items := idx.ITTree.Items(rng.Intn(k))
			sub := append(itemset.Set(nil), items...)
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			sub = sub[:1+rng.Intn(len(sub))]
			out = append(out, itemset.NewSet(sub...))
		default:
			raw := make([]itemset.Item, 1+rng.Intn(3))
			for j := range raw {
				raw[j] = itemset.Item(rng.Intn(idx.Space.NumItems()))
			}
			out = append(out, itemset.NewSet(raw...))
		}
	}
	return out
}

// lookupProbeSets mixes exact hits (stored CFIs) with near misses (one
// item of a stored CFI swapped), the workload the exact index serves
// during delta merges and scatter-gather closure stitching.
func lookupProbeSets(rng *rand.Rand, idx *mip.Index, n int) []itemset.Set {
	out := make([]itemset.Set, 0, n)
	k := idx.ITTree.Size()
	for len(out) < n {
		items := idx.ITTree.Items(rng.Intn(k))
		if rng.Intn(2) == 0 {
			out = append(out, items)
			continue
		}
		mut := append(itemset.Set(nil), items...)
		mut[rng.Intn(len(mut))] = itemset.Item(rng.Intn(idx.Space.NumItems()))
		out = append(out, itemset.NewSet(mut...))
	}
	return out
}

// regionProbes draws random focal regions — one or two attributes
// restricted to contiguous value windows — for the supported R-tree
// search kernel.
func regionProbes(rng *rand.Rand, sp *itemset.Space, n int) []*itemset.Region {
	out := make([]*itemset.Region, 0, n)
	for len(out) < n {
		reg := itemset.RegionFor(sp)
		dims := 1 + rng.Intn(2)
		for i := 0; i < dims; i++ {
			a := rng.Intn(sp.NumAttrs())
			card := sp.Cardinality(a)
			lo := rng.Intn(card)
			hi := lo + rng.Intn(card-lo)
			vals := make([]int, 0, hi-lo+1)
			for v := lo; v <= hi; v++ {
				vals = append(vals, v)
			}
			if err := reg.Restrict(a, vals); err != nil {
				continue // attribute already restricted; keep the region
			}
		}
		out = append(out, reg)
	}
	return out
}

// WriteJSON serializes the report as indented JSON.
func (r *IndexReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintIndex renders the report.
func PrintIndex(w io.Writer, rep *IndexReport) {
	fmt.Fprintf(w, "MIP-index physical-layer benchmark — %s, %d records, %d MIPs (%s/%s, %d CPUs)\n",
		rep.Dataset, rep.Records, rep.MIPs, rep.GOOS, rep.GOARCH, rep.CPUs)
	kernel := func(name string, rows []IndexKernelRow) {
		fmt.Fprintf(w, "%s (%d ops, best of rounds):\n", name, rows[0].Ops)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-8s %10.1f ns/op  (%s)\n", r.Layout, r.NsPerOp, r.Impl)
		}
	}
	kernel("closure resolution", rep.Closure)
	kernel("exact lookup", rep.Lookup)
	kernel("supported R-tree probe", rep.RTreeProbe)
	if len(rep.Consolidation) > 0 {
		fmt.Fprintf(w, "consolidation pause (aged sharded engine, %d workers):\n", rep.Consolidation[0].Workers)
		for _, c := range rep.Consolidation {
			fmt.Fprintf(w, "  K=%-3d %12s\n", c.Shards,
				time.Duration(c.RebuildPauseNs).Round(time.Microsecond))
		}
	}
	if len(rep.ShardIndexBuild) > 0 {
		fmt.Fprintf(w, "per-shard catalog minings (%s, %d records, scatter catalog):\n",
			rep.ScatterDataset, rep.ScatterRecords)
		for _, sb := range rep.ShardIndexBuild {
			fmt.Fprintf(w, "  K=%-3d %12s total  %12s max shard  %6d local CFIs\n", sb.Shards,
				time.Duration(sb.TotalBuildNs).Round(time.Microsecond),
				time.Duration(sb.MaxShardBuildNs).Round(time.Microsecond), sb.IndexedCFIs)
		}
	}
}
