package plans

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/ittree"
	"colarm/internal/mip"
	"colarm/internal/rtree"
	"colarm/internal/rules"
)

// mergedSurface builds the merged surface of idx with a random fifth of
// its records deleted and a few rows appended, the way the delta layer
// does: tidsets grown over the buffered ids with the deletes cleared, a
// re-mine at the merged primary count, a fresh IT-tree and boxes (see
// scanBoxes), the boxes packed at the frozen index's fanout. An appended
// row copies a random base record with one attribute re-drawn, so it
// shares the base's correlations.
func mergedSurface(t *testing.T, r *rand.Rand, idx *mip.Index, primary float64) *Surface {
	t.Helper()
	d, sp := idx.Dataset, idx.Space
	baseN := d.NumRecords()
	rows := make([][]int, 1+baseN/10)
	for k := range rows {
		src := r.Intn(baseN)
		row := make([]int, sp.NumAttrs())
		for a := range row {
			row[a] = d.Value(src, a)
		}
		a := r.Intn(len(row))
		row[a] = r.Intn(sp.Cardinality(a))
		rows[k] = row
	}
	n := baseN + len(rows)
	live := bitset.New(n)
	for rec := 0; rec < n; rec++ {
		if rec >= baseN || r.Intn(5) > 0 {
			live.Add(rec)
		}
	}
	tids := make([]*bitset.Set, len(idx.Tidsets))
	for it, s := range idx.Tidsets {
		tids[it] = s.CloneGrown(n)
	}
	for k, row := range rows {
		for a, v := range row {
			tids[sp.ItemOf(a, v)].Add(baseN + k)
		}
	}
	for it := range tids {
		tids[it].And(live)
	}
	minCount := charm.CountFor(primary, live.Count())
	items, vecs, err := charm.Frequent(tids, n, minCount)
	if err != nil {
		t.Fatal(err)
	}
	res, err := charm.MineVectors(context.Background(), items, vecs, n, minCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfiTids := make([]*bitset.Set, res.Len())
	for id := range cfiTids {
		cfiTids[id] = bitset.New(n)
		cfiTids[id].Fill()
		for _, it := range res.Items(id) {
			cfiTids[id].And(tids[it])
		}
	}
	value := func(rec, a int) int {
		if rec < baseN {
			return d.Value(rec, a)
		}
		return rows[rec-baseN][a]
	}
	boxes := scanBoxes(cfiTids, n, len(idx.Cards), value)
	arena, off := res.Arena()
	sb := rtree.Boxes{Cards: idx.Cards, Items: arena, ItemOff: off, RecOff: []int32{0}, Sups: make([]int32, res.Len())}
	for id, b := range boxes {
		sb.Recs = itemset.AppendSparse(sb.Recs, rtree.Base(idx.Cards), res.Items(id), b.Lo, b.Hi)
		sb.RecOff = append(sb.RecOff, int32(len(sb.Recs)))
		sb.Sups[id] = int32(res.Support(id))
	}
	rt, err := rtree.Bulk(sb, idx.RTree.Fanout())
	if err != nil {
		t.Fatal(err)
	}
	return &Surface{
		Tree:         ittree.Build(res, cfiTids, sp.NumItems()),
		Tidsets:      tids,
		RTree:        rt,
		Levels:       rt.Stats(idx.Cards),
		PrimaryCount: minCount,
		NumRecords:   n,
		Live:         live,
		Value:        value,
		Version:      1,
	}
}

// scanBoxes returns each CFI's box by a record scan of its tidset,
// cfiTids[id], independent of the index's tidset probes: per attribute,
// the [min,max] value of the CFI's records. The n records are ordered
// by their value on each attribute once, so a bound is the first (or
// last) record of that order the CFI's tidset holds, and a high-support
// CFI stops at once.
func scanBoxes(cfiTids []*bitset.Set, n, attrs int, value func(rec, a int) int) []itemset.Box {
	byValue := make([][]int, attrs)
	for a := range byValue {
		byValue[a] = make([]int, n)
		for rec := range byValue[a] {
			byValue[a][rec] = rec
		}
		slices.SortStableFunc(byValue[a], func(x, y int) int { return value(x, a) - value(y, a) })
	}
	boxes := make([]itemset.Box, len(cfiTids))
	for id, tids := range cfiTids {
		boxes[id] = itemset.NewBox(attrs)
		for a, order := range byValue {
			lo := slices.IndexFunc(order, tids.Contains)
			hi := len(order) - 1
			for !tids.Contains(order[hi]) {
				hi--
			}
			boxes[id].Lo[a], boxes[id].Hi[a] = int32(value(order[lo], a)), int32(value(order[hi], a))
		}
	}
	return boxes
}

// namedSurface is one row of the table every surface-shape test runs
// its one executor over.
type namedSurface struct {
	name string
	*Surface
}

// surfaceTable presents idx in both shapes a Surface takes: the frozen
// index and a merged surface over it (see mergedSurface).
func surfaceTable(t *testing.T, r *rand.Rand, idx *mip.Index, primary float64) []namedSurface {
	t.Helper()
	return []namedSurface{
		{"frozen", NewSurface(idx)},
		{"merged", mergedSurface(t, r, idx, primary)},
	}
}

// TestClosureCountEqualsChainCount is the invariant VERIFY's oracle now
// rests on: for every itemset the rule generator asks about, the count
// VERIFY resolves — ELIMINATE's exact count of the stored closure,
// |D^Q ∩ t(clos(X))|, or else the AND over D^Q's layout — equals the
// count chained over the per-item tidsets, |D^Q ∩ t(x₁) ∩ … ∩ t(x_k)| —
// on every surface shape, with and without the Lemma 4.5 shortcut
// feeding ELIMINATE's per-CFI counts.
func TestClosureCountEqualsChainCount(t *testing.T) {
	asked, reused := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		idx, err := randomIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(idx.Space)
		surfaces := surfaceTable(t, r, idx, 0.1)
		for i := 0; i < 6; i++ {
			q := randomQuery(r, idx)
			for _, s := range surfaces {
				f := ex.Focus(s.Surface, q)
				for _, shortcut := range []bool{false, true} {
					c := ex.newCtx(context.Background(), f, q)
					cands, err := c.search(shortcut)
					if err != nil {
						t.Fatal(err)
					}
					quals, err := c.eliminate(cands, shortcut)
					if err != nil {
						t.Fatal(err)
					}
					for _, ql := range quals {
						f.vectors(ql.body) // VERIFY's pre-fan-out step
					}
					oracle := func(x itemset.Set) int {
						if len(x) == 0 {
							return -1
						}
						got, want := c.countItems(x), chainCount(f.DQ, s.Tidsets, x)
						if got != want {
							t.Fatalf("seed %d %s shortcut=%v: supp_Q(%v) through the closure is %d, over the item tidsets %d",
								seed, s.name, shortcut, x, got, want)
						}
						asked++
						id, _ := s.Tree.ClosureID(x)
						if n, ok := c.local(id); ok && n == got {
							reused++
						}
						return got
					}
					for _, ql := range quals {
						rules.Generate(nil, nil, ql.body, ql.local, c.st.SubsetSize, q.MinConfidence, oracle, rules.Options{})
					}
				}
			}
		}
	}
	if asked < 1000 || reused == 0 {
		t.Errorf("oracle asked %d times (%d answered from ELIMINATE's counts): the queries no longer reach VERIFY", asked, reused)
	}
}

// hasVector lists which items have a vector in f's layout.
func hasVector(f *Focal, numItems int) []bool {
	out := make([]bool, numItems)
	for it := range out {
		out[it] = f.vecs.slot != nil && f.vecs.slot[it].gen == f.vecs.gen
	}
	return out
}

// TestVerifyCountsOnlyBuiltVectors: VERIFY's workers only read D^Q's
// layout. Under SS-E-U-V at GOMAXPROCS 4, on frozen and merged surfaces,
// VERIFY's pre-fan-out step gives a vector to exactly the bodies' items
// that lacked one, and every itemset the rule generator asks VERIFY's
// oracle about names only items with a vector — counted as the chain
// over the item tidsets. The contained shortcut must leave some body
// item without a vector, or the step is not exercised.
func TestVerifyCountsOnlyBuiltVectors(t *testing.T) {
	setProcs(t, 4)
	built := 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		idx, err := randomIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(idx.Space)
		n := idx.Space.NumItems()
		for _, s := range surfaceTable(t, r, idx, 0.1) {
			for i := 0; i < 6; i++ {
				q := randomQuery(r, idx)
				f := ex.Focus(s.Surface, q)
				if f.Size == 0 {
					continue
				}
				c := ex.newCtx(context.Background(), f, q)
				cands, err := c.search(true)
				if err != nil {
					t.Fatal(err)
				}
				quals, err := c.eliminate(cands, true)
				if err != nil {
					t.Fatal(err)
				}
				want := hasVector(f, n)
				for _, ql := range quals {
					for _, it := range ql.body {
						if !want[it] {
							want[it] = true
							built++
						}
					}
				}
				if _, err := c.verify(quals); err != nil {
					t.Fatal(err)
				}
				have := hasVector(f, n)
				if !slices.Equal(have, want) {
					t.Fatalf("seed %d %s query %d: items with vectors after VERIFY %v, want %v", seed, s.name, i, have, want)
				}
				ask := func(x itemset.Set) int {
					for _, it := range x {
						if !have[it] {
							t.Fatalf("seed %d %s query %d: VERIFY counts %v, item %d has no vector", seed, s.name, i, x, it)
						}
					}
					got := c.countItems(x)
					if want := chainCount(f.DQ, s.Tidsets, x); got != want {
						t.Fatalf("seed %d %s query %d: supp_Q(%v) = %d, D^Q holds %d", seed, s.name, i, x, got, want)
					}
					return got
				}
				for _, ql := range quals {
					rules.Generate(nil, nil, ql.body, ql.local, c.st.SubsetSize, q.MinConfidence, ask, rules.Options{MaxConsequent: q.MaxConsequent})
				}
			}
		}
	}
	if built == 0 {
		t.Fatal("every body item had a vector before VERIFY: the pre-fan-out step is not exercised")
	}
	t.Logf("VERIFY's pre-fan-out step built %d vectors", built)
}

// dedupeRules drops repeated rules (same antecedent and consequent),
// keeping the first occurrence: how VERIFY merged its per-itemset rule
// lists before it kept one slot per CFI id.
func dedupeRules(rs []rules.Rule) []rules.Rule {
	seen := make(map[string]bool, len(rs))
	out := rs[:0]
	for _, r := range rs {
		if k := r.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// verifyConcatDedupe is VERIFY as it was: generate every qualified
// itemset's rules, concatenate them all, drop repeated rules.
func (c *qctx) verifyConcatDedupe(quals []qualified) []rules.Rule {
	var tally counterTally
	oracle := c.sharedOracle(new(shardedCounts), &tally)
	var out []rules.Rule
	for _, ql := range quals {
		out, _ = rules.Generate(out, nil, ql.body, ql.local, c.st.SubsetSize,
			c.q.MinConfidence, oracle, rules.Options{MaxConsequent: c.q.MaxConsequent})
	}
	tally.addTo(c.st)
	out = dedupeRules(out)
	c.st.RulesEmitted = len(out)
	return out
}

// TestVerifyDedupeByID holds VERIFY's one-slot-per-CFI-id merge to the
// concatenate-then-dedupe merge it replaced, rules and Stats alike, on a
// frozen and a merged surface, for every MIP plan. Under an ITEM
// ATTRIBUTES clause a projected body can close onto a CFI that SEARCH
// also emits on the identity path, so one id qualifies twice; no
// benchmark query restricts item attributes, so only this test covers
// that case, and it fails if the case never arises.
func TestVerifyDedupeByID(t *testing.T) {
	repeated := 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		idx, err := randomIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(idx.Space)
		surfaces := []namedSurface{{"frozen", NewSurface(idx)}, {"merged", mergedSurface(t, r, idx, 0.1)}}
		for i := 0; i < 8; i++ {
			q := randomQuery(r, idx)
			if q.ItemAttrs == nil {
				continue
			}
			for _, s := range surfaces {
				f := ex.Focus(s.Surface, q)
				if f.Size == 0 {
					continue
				}
				for _, kind := range mipKinds() {
					res, err := ex.RunContext(context.Background(), kind, f, q)
					if err != nil {
						t.Fatal(err)
					}
					supported := kind == SSEV || kind == SSVS || kind == SSEUV
					c := ex.newCtx(context.Background(), f, q)
					cands, err := c.search(supported)
					if err != nil {
						t.Fatal(err)
					}
					quals, err := c.eliminate(cands, kind == SSEUV)
					if err != nil {
						t.Fatal(err)
					}
					ids := make(map[int32]bool, len(quals))
					for _, ql := range quals {
						if ids[ql.id] {
							repeated++
							break
						}
						ids[ql.id] = true
					}
					want := c.verifyConcatDedupe(quals)
					rules.SortCanonical(want)
					if !reflect.DeepEqual(res.Rules, want) {
						t.Fatalf("seed %d %s %s: %d rules, concatenate-then-dedupe gives %d", seed, s.name, kind, len(res.Rules), len(want))
					}
					got, wantSt := res.Stats, *c.st
					got.Duration, wantSt.Plan = 0, kind
					if got != wantSt {
						t.Fatalf("seed %d %s %s: stats\n got %+v\nwant %+v", seed, s.name, kind, got, wantSt)
					}
				}
			}
		}
	}
	if repeated == 0 {
		t.Fatal("no query qualified one CFI id twice; the test checks nothing")
	}
	t.Logf("%d plan runs qualified a CFI id twice", repeated)
}

// chainCount is |base ∩ t(x₁) ∩ … ∩ t(x_k)| over record-space tidsets,
// materialized the obvious way: the reference the closure count and
// ARM's vector count are held to.
func chainCount(base *bitset.Set, tidsets []*bitset.Set, x itemset.Set) int {
	acc := base.Clone()
	for _, it := range x {
		acc.And(tidsets[it])
	}
	return acc.Count()
}

// BenchmarkVerifyOracle times VERIFY — rule generation with every
// antecedent support resolved by the oracle — serially, with
// MaxConsequent 1, after SUPPORTED-SEARCH and SS-E-U-V's ELIMINATE:
//   - mushroom: the standing query of the served ingest_notify workload,
//     full mushroom @ 0.30 over the hot region m01 = m011;
//   - chess: a mine_mip shape, chess @ 0.70 at minsupport 0.85 over a
//     focal subset of about 10 % of the records.
func BenchmarkVerifyOracle(b *testing.B) {
	setProcs(b, 1)
	for _, tc := range []struct {
		name    string
		cfg     datagen.Config
		primary float64
		region  func(*mip.Index) (*itemset.Region, error)
		minSupp float64
		minConf float64
	}{
		{"mushroom", datagen.MushroomConfig(1), 0.30, func(idx *mip.Index) (*itemset.Region, error) {
			return idx.RegionFromSelections(map[string][]string{"m01": {"m011"}})
		}, 0.70, 0.85},
		{"chess", datagen.ChessConfig(1), 0.70, func(idx *mip.Index) (*itemset.Region, error) {
			return fracRegion(idx, 0.10), nil
		}, 0.85, 0.8},
	} {
		d, err := datagen.Generate(tc.cfg)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := mip.Build(d, mip.Options{PrimarySupport: tc.primary})
		if err != nil {
			b.Fatal(err)
		}
		reg, err := tc.region(idx)
		if err != nil {
			b.Fatal(err)
		}
		q := &Query{Region: reg, MinSupport: tc.minSupp, MinConfidence: tc.minConf, MaxConsequent: 1}
		ex := NewExecutor(idx.Space)
		c := ex.newCtx(context.Background(), ex.Focus(NewSurface(idx), q), q)
		cands, err := c.search(true)
		if err != nil {
			b.Fatal(err)
		}
		quals, err := c.eliminate(cands, true)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			misses := c.st.OracleMisses
			for i := 0; i < b.N; i++ {
				rs, err := c.verify(quals)
				if err != nil {
					b.Fatal(err)
				}
				verified = rs
			}
			b.ReportMetric(float64(len(verified)), "rules")
			b.ReportMetric(float64(c.st.OracleMisses-misses)/float64(b.N), "misses/op")
		})
	}
}

var verified []rules.Rule
