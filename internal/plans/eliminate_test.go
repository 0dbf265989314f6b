package plans

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/mip"
)

// quickIndex is one of the benchmark datasets at a reduced scale and a
// primary support that keep an index and its merged surface small, with
// the least minsupport that keeps VERIFY small on it.
type quickIndex struct {
	name             string
	cfg              datagen.Config
	primary, minSupp float64
}

var quickIndexes = []quickIndex{
	{"chess", datagen.Scaled(datagen.ChessConfig(1), 0.5), 0.80, 0.85},
	{"mushroom", datagen.Scaled(datagen.MushroomConfig(1), 0.5), 0.40, 0.60},
	{"pumsb", datagen.Scaled(datagen.PUMSBConfig(1), 0.1), 0.94, 0.95},
}

// boundQuery draws a random region (up to three restricted attributes),
// sometimes an item-attribute mask, and a minsupport of at least
// minSupp. A tight query instead sets MinCount over s to the local
// support of a CFI that one of its items matches exactly, so the bound
// meets an item whose count equals MinCount inside a qualifying
// candidate: the boundary it must not prune.
func boundQuery(r *rand.Rand, ex *Executor, s *Surface, minSupp float64, tight bool) *Query {
	sp := ex.Space
	reg := itemset.RegionFor(sp)
	for _, a := range r.Perm(sp.NumAttrs())[:1+r.Intn(3)] {
		var vals []int
		for v := 0; v < sp.Cardinality(a); v++ {
			if r.Intn(4) > 0 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			vals = []int{0}
		}
		if err := reg.Restrict(a, vals); err != nil {
			panic(err)
		}
	}
	var mask []bool
	if r.Intn(3) == 0 {
		mask = make([]bool, sp.NumAttrs())
		for a := range mask {
			mask[a] = r.Intn(2) == 0
		}
	}
	q := &Query{Region: reg, ItemAttrs: mask, MinSupport: minSupp + (1-minSupp)*r.Float64(), MinConfidence: 0.9, MaxConsequent: 1}
	if tight {
		f := ex.Focus(s, q)
		var counts []int
		for id := 0; id < s.Tree.Size(); id++ {
			n := bitset.AndCount(f.DQ, s.Tree.Tids(id))
			if float64(n) < minSupp*float64(f.Size) {
				continue
			}
			for _, it := range s.Tree.Items(id) {
				if bitset.AndCount(f.DQ, s.Tidsets[it]) == n {
					counts = append(counts, n)
					break
				}
			}
		}
		if len(counts) > 0 {
			q.MinSupport = (float64(counts[r.Intn(len(counts))]) - 0.5) / float64(f.Size)
		}
	}
	return q
}

// TestEliminateItemBound holds ELIMINATE's item bound to the operator
// without it, on quick chess, mushroom and PUMSB, over a frozen surface
// and a merged surface with inserts and deletes, under all five MIP
// plans: in the per-CFI state every pruned id's exact local support is
// below MinCount, every counted id holds its exact count and no id is
// left scheduled, and rules and every counter but SupportChecks equal a
// run with the bound disabled. Stats are equal at GOMAXPROCS 1 and at
// 4.
func TestEliminateItemBound(t *testing.T) {
	setProcs(t, 1)
	pruned, tight, checksOn, checksOff := 0, 0, 0, 0
	for di, qi := range quickIndexes {
		d, err := datagen.Generate(qi.cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: qi.primary})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(di)))
		surfaces := []namedSurface{{"frozen", NewSurface(idx)}, {"merged", mergedSurface(t, r, idx, qi.primary)}}
		ex := NewExecutor(idx.Space)
		exOff := &Executor{Space: idx.Space, noItemBound: true}
		for i := 0; i < 3; i++ {
			q := boundQuery(r, ex, surfaces[0].Surface, qi.minSupp, i != 1)
			for _, s := range surfaces {
				f := ex.Focus(s.Surface, q)
				if f.Size == 0 {
					continue
				}
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s query %d %s (|DQ| %d, MinCount %d): "+format,
						append([]any{qi.name, i, s.name, f.Size, f.MinCount}, args...)...)
				}
				exact := func(id int) int { return bitset.AndCount(f.DQ, s.Tree.Tids(id)) }
				// S-E-V and S-VS run one ELIMINATE, as do SS-E-V and SS-VS.
				for _, kind := range []Kind{SEV, SSEV, SSEUV} {
					supported := kind != SEV
					c := ex.newCtx(context.Background(), f, q)
					cands, err := c.search(supported)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := c.eliminate(cands, kind == SSEUV); err != nil {
						t.Fatal(err)
					}
					for id, v := range c.cfi {
						switch {
						case v == cfiScheduled:
							fail("%s: CFI %d is left scheduled", kind, id)
						case v == cfiPruned:
							if n := exact(id); n >= c.f.MinCount {
								fail("%s: pruned CFI %d has local support %d", kind, id, n)
							}
							pruned++
						case v != cfiNone:
							if n, _ := c.local(id); n != exact(id) {
								fail("%s: CFI %d counted %d, exact count %d", kind, id, n, exact(id))
							}
						}
					}

					cOff := exOff.newCtx(context.Background(), f, q)
					qualsOff, err := cOff.eliminate(cands, kind == SSEUV)
					if err != nil {
						t.Fatal(err)
					}
					for _, ql := range qualsOff {
						for _, it := range s.Tree.Items(int(ql.id)) {
							if bitset.AndCount(f.DQ, s.Tidsets[it]) == f.MinCount {
								tight++
								break
							}
						}
					}
				}
				for _, kind := range mipKinds() {
					res, err := ex.RunContext(context.Background(), kind, f, q)
					if err != nil {
						t.Fatal(err)
					}
					off, err := exOff.RunContext(context.Background(), kind, f, q)
					if err != nil {
						t.Fatal(err)
					}
					var par *Result
					atProcs(4, func() { par, err = ex.RunContext(context.Background(), kind, f, q) })
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Rules, off.Rules) {
						fail("%s: %d rules with the bound, %d without", kind, len(res.Rules), len(off.Rules))
					}
					if !reflect.DeepEqual(res.Rules, par.Rules) {
						fail("%s: %d rules at one worker, %d at four", kind, len(res.Rules), len(par.Rules))
					}
					st, stOff, stPar := res.Stats, off.Stats, par.Stats
					st.Duration, stOff.Duration, stPar.Duration = 0, 0, 0
					if st != stPar {
						fail("%s: stats at one worker\n%+v\nat four\n%+v", kind, st, stPar)
					}
					checksOn += st.SupportChecks
					checksOff += stOff.SupportChecks
					stOff.SupportChecks = st.SupportChecks
					if st != stOff {
						fail("%s: stats with the bound\n%+v\nwithout\n%+v", kind, st, stOff)
					}
				}
			}
		}
	}
	if pruned == 0 || tight == 0 {
		t.Fatalf("%d candidates pruned, %d qualified at MinCount exactly: the queries no longer reach both sides of the bound", pruned, tight)
	}
	if checksOn >= checksOff {
		t.Errorf("%d support checks with the bound, %d without", checksOn, checksOff)
	}
	t.Logf("%d pruned, %d at the boundary; support checks %d → %d", pruned, tight, checksOff, checksOn)
}

// fracRegion narrows a region one attribute value at a time, each step
// taking the value of a still unrestricted attribute that brings |D^Q|
// closest to frac of the records, until no value brings it closer.
func fracRegion(idx *mip.Index, frac float64) *itemset.Region {
	sp, n := idx.Space, idx.Dataset.NumRecords()
	target := int(frac * float64(n))
	dq := bitset.New(n)
	dq.Fill()
	gap := func(c int) int { return max(c-target, target-c) }
	reg := itemset.RegionFor(sp)
	for {
		bestA, bestV, bestGap := -1, 0, gap(dq.Count())
		for a := 0; a < sp.NumAttrs(); a++ {
			if reg.Restricted(a) {
				continue
			}
			for v := 0; v < sp.Cardinality(a); v++ {
				if g := gap(bitset.AndCount(dq, idx.Tidsets[sp.ItemOf(a, v)])); g < bestGap {
					bestA, bestV, bestGap = a, v, g
				}
			}
		}
		if bestA < 0 {
			return reg
		}
		dq.And(idx.Tidsets[sp.ItemOf(bestA, bestV)])
		if err := reg.Restrict(bestA, []int{bestV}); err != nil {
			panic(err)
		}
	}
}

// mipBenchShapes are the indexes of the served mine_mip workload: full
// mushroom @ 0.05 and chess @ 0.70, each with the middle minsupport of
// its grid (0.75 on mushroom, 0.85 on chess).
var mipBenchShapes = []struct {
	name             string
	cfg              datagen.Config
	primary, minSupp float64
}{
	{"mushroom", datagen.MushroomConfig(1), 0.05, 0.75},
	{"chess", datagen.ChessConfig(1), 0.70, 0.85},
}

// BenchmarkSearch times SEARCH and SUPPORTED-SEARCH — one box test per
// visited R-tree entry — on the mine_mip shapes over focal subsets of
// about 50, 10 and 1 % of the records.
func BenchmarkSearch(b *testing.B) {
	setProcs(b, 1)
	for _, ds := range mipBenchShapes {
		d, err := datagen.Generate(ds.cfg)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: ds.primary})
		if err != nil {
			b.Fatal(err)
		}
		s := NewSurface(idx)
		for _, frac := range []float64{0.50, 0.10, 0.01} {
			q := &Query{Region: fracRegion(idx, frac), MinSupport: ds.minSupp, MinConfidence: 0.8}
			ex := NewExecutor(idx.Space)
			f := ex.Focus(s, q)
			for _, supported := range []bool{false, true} {
				name := fmt.Sprintf("%s/dq=%g%%/search", ds.name, 100*frac)
				if supported {
					name = fmt.Sprintf("%s/dq=%g%%/supported", ds.name, 100*frac)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var c *qctx
					for i := 0; i < b.N; i++ {
						c = ex.newCtx(context.Background(), f, q)
						if _, err := c.search(supported); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(c.st.REntriesChecked), "entries")
					b.ReportMetric(float64(c.st.Candidates), "cands")
				})
			}
		}
	}
}

// BenchmarkEliminate times ELIMINATE with and without its item bound
// after a plain SEARCH (S-E-V), serial, on the mine_mip shapes, over
// focal subsets of about 50, 10 and 1 % of the records. Each iteration
// runs on a fresh query context and layout, as a request does.
func BenchmarkEliminate(b *testing.B) {
	setProcs(b, 1)
	for _, ds := range mipBenchShapes {
		d, err := datagen.Generate(ds.cfg)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: ds.primary})
		if err != nil {
			b.Fatal(err)
		}
		s := NewSurface(idx)
		for _, frac := range []float64{0.50, 0.10, 0.01} {
			q := &Query{Region: fracRegion(idx, frac), MinSupport: ds.minSupp, MinConfidence: 0.8}
			for _, bound := range []bool{true, false} {
				ex := &Executor{Space: idx.Space, noItemBound: !bound}
				f := ex.Focus(s, q)
				cands, err := ex.newCtx(context.Background(), f, q).search(false)
				if err != nil {
					b.Fatal(err)
				}
				name := fmt.Sprintf("%s/dq=%g%%/bound", ds.name, 100*frac)
				if !bound {
					name = fmt.Sprintf("%s/dq=%g%%/checkall", ds.name, 100*frac)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var c *qctx
					for i := 0; i < b.N; i++ {
						c = ex.newCtx(context.Background(), freshFocal(f), q)
						if _, err := c.eliminate(cands, false); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(f.Size)/float64(idx.Dataset.NumRecords()), "dq_frac")
					b.ReportMetric(float64(len(cands)), "cands")
					b.ReportMetric(float64(c.st.SupportChecks), "checks")
				})
			}
		}
	}
}

// TestEliminateLocalVectors holds every record-level check ELIMINATE
// runs over its rank-space vectors to bitset.AndCount of D^Q and the
// CFI's stored tidset, on quick chess, mushroom and PUMSB, over a frozen
// surface and a merged surface with inserts and deletes, with and
// without the item bound, at one worker and at four.
func TestEliminateLocalVectors(t *testing.T) {
	checked, partial := 0, 0
	for di, qi := range quickIndexes {
		d, err := datagen.Generate(qi.cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: qi.primary})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(100 + di)))
		surfaces := []namedSurface{{"frozen", NewSurface(idx)}, {"merged", mergedSurface(t, r, idx, qi.primary)}}
		for i := 0; i < 3; i++ {
			q := boundQuery(r, NewExecutor(idx.Space), surfaces[0].Surface, qi.minSupp, i != 1)
			for _, s := range surfaces {
				for _, workers := range []int{1, 4} {
					for _, bound := range []bool{true, false} {
						ex := &Executor{Space: idx.Space, noItemBound: !bound}
						f := ex.Focus(s.Surface, q)
						if f.Size == 0 {
							continue
						}
						if f.Size%64 != 0 {
							partial++
						}
						for _, supported := range []bool{false, true} {
							c := ex.newCtx(context.Background(), f, q)
							cands, err := c.search(supported)
							if err != nil {
								t.Fatal(err)
							}
							atProcs(workers, func() { _, err = c.eliminate(cands, false) })
							if err != nil {
								t.Fatal(err)
							}
							for id := range c.cfi {
								n, ok := c.local(id)
								if !ok {
									continue
								}
								if want := bitset.AndCount(f.DQ, s.Tree.Tids(id)); n != want {
									t.Fatalf("%s query %d %s workers=%d bound=%v supported=%v (|DQ| %d): CFI %d counted %d over the vectors, AndCount %d",
										qi.name, i, s.name, workers, bound, supported, f.Size, id, n, want)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 || partial == 0 {
		t.Fatalf("%d checks held to AndCount, %d focal subsets ending mid-word: the queries no longer reach the vectors", checked, partial)
	}
	t.Logf("%d checks held to AndCount", checked)
}
