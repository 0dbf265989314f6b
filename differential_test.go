package colarm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
	"colarm/internal/rules"
)

// TestDifferentialOracle checks every execution plan against an
// independent from-scratch oracle on randomized small datasets, and
// that parallel execution (GOMAXPROCS > 1) is byte-identical to serial.
//
// The oracle rebuilds both answer sets from first principles, sharing
// no code with the executor beyond the raw tidsets and the brute-force
// closed-itemset enumerator:
//
//   - MIP plans answer from the prestored closed frequent itemsets at
//     the primary support: each is projected onto the item attributes,
//     a proper projection is normalized to its global closure's
//     projection, and the body qualifies when its local support inside
//     the focal subset reaches the query threshold. (Dropping the
//     R-tree overlap condition is sound: a body with nonzero local
//     support always has an overlapping closure CFI that normalizes
//     back to it.)
//   - ARM answers from the closed frequent itemsets of the focal
//     subset itself, with no primary-support floor.
//
// Rules then follow by exhaustive antecedent/consequent split
// enumeration with exact local counting — valid because confidence is
// anti-monotone in the consequent, which makes the executor's
// level-wise pruning lossless.
func TestDifferentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	totalRules := 0
	for trial := 0; trial < 12; trial++ {
		totalRules += runDifferentialTrial(t, rng, trial)
	}
	// Guard against a degenerate run where every comparison was of
	// empty rule sets.
	if totalRules == 0 {
		t.Fatal("no trial produced any rules; the differential comparison is vacuous")
	}
}

func runDifferentialTrial(t *testing.T, rng *rand.Rand, trial int) int {
	t.Helper()
	cfg := randomDiffConfig(rng, trial)
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatalf("trial %d: generate: %v", trial, err)
	}
	ds := &Dataset{rel: d}
	primary := 0.15 + 0.2*rng.Float64()
	open := func() (*Engine, error) { return Open(ds, Options{PrimarySupport: primary}) }
	eng1, err := atProcs(1, open)
	if err != nil {
		t.Fatalf("trial %d: open serial: %v", trial, err)
	}
	eng4, err := atProcs(4, open)
	if err != nil {
		t.Fatalf("trial %d: open parallel: %v", trial, err)
	}

	sp := itemset.NewSpace(d)
	tids := itemset.ItemTidsets(d, sp)
	m := d.NumRecords()

	totalRules := 0
	for qi := 0; qi < 2; qi++ {
		q := randomDiffQuery(rng, ds)
		label := fmt.Sprintf("trial %d query %d (%+v, primary %.3f)", trial, qi, q, primary)

		// Focal subset membership, from raw record labels only.
		restricted := make(map[int]map[string]bool)
		for attr, vals := range q.Range {
			ai := d.AttrIndex(attr)
			set := make(map[string]bool, len(vals))
			for _, v := range vals {
				set[v] = true
			}
			restricted[ai] = set
		}
		dq := bitset.New(m)
		for r := 0; r < m; r++ {
			rec := ds.Record(r)
			in := true
			for ai, set := range restricted {
				if !set[rec[ai]] {
					in = false
					break
				}
			}
			if in {
				dq.Add(r)
			}
		}
		size := dq.Count()

		mask := make([]bool, d.NumAttrs())
		if len(q.ItemAttributes) == 0 {
			for a := range mask {
				mask[a] = true
			}
		} else {
			for _, name := range q.ItemAttributes {
				mask[d.AttrIndex(name)] = true
			}
		}
		localCount := func(x itemset.Set) int {
			acc := bitset.Intersect(dq, tids[x[0]])
			for _, it := range x[1:] {
				acc.And(tids[it])
			}
			return acc.Count()
		}

		var expMIP, expARM []Rule
		if size > 0 {
			minCount := charm.CountFor(q.MinSupport, size)
			expMIP = wrapExpected(sp, oracleMIPRules(sp, tids, m, mask, primary, minCount, size,
				q.MinConfidence, q.MaxConsequent, localCount))
			expARM = wrapExpected(sp, oracleARMRules(sp, tids, dq, m, mask, minCount, size,
				q.MinConfidence, q.MaxConsequent, localCount))
		}

		for _, plan := range []Plan{SEV, SVS, SSEV, SSVS, SSEUV, ARM, Auto} {
			pq := q
			pq.Plan = plan
			res1, err := atProcs(1, func() (*Result, error) { return eng1.Mine(pq) })
			if err != nil {
				t.Fatalf("%s: plan %s serial: %v", label, plan, err)
			}
			want := expMIP
			if res1.Stats.Plan == ARM {
				want = expARM
			}
			if !reflect.DeepEqual(res1.Rules, want) {
				t.Fatalf("%s: plan %s: %d rules, oracle expects %d\ngot:  %v\nwant: %v",
					label, plan, len(res1.Rules), len(want), res1.Rules, want)
			}
			res4, err := atProcs(4, func() (*Result, error) { return eng4.Mine(pq) })
			if err != nil {
				t.Fatalf("%s: plan %s parallel: %v", label, plan, err)
			}
			if !reflect.DeepEqual(res4.Rules, res1.Rules) {
				t.Fatalf("%s: plan %s: parallel rules differ from serial", label, plan)
			}
			s1, s4 := res1.Stats, res4.Stats
			s1.DurationNanos, s4.DurationNanos = 0, 0
			if s1 != s4 {
				t.Fatalf("%s: plan %s: parallel stats differ from serial\nserial:   %+v\nparallel: %+v",
					label, plan, s1, s4)
			}
			totalRules += len(res1.Rules)
		}
	}
	return totalRules
}

// randomDiffConfig builds a small random generator configuration:
// 40-120 records over 3-5 attributes of cardinality 2-4.
func randomDiffConfig(rng *rand.Rand, trial int) datagen.Config {
	nAttrs := 3 + rng.Intn(3)
	nClusters := 2 + rng.Intn(2)
	clusters := make([]float64, nClusters)
	for i := range clusters {
		clusters[i] = 1 / float64(nClusters)
	}
	attrs := make([]datagen.AttrSpec, nAttrs)
	for a := range attrs {
		align := make([]float64, nClusters)
		for c := range align {
			align[c] = 0.3 + 0.6*rng.Float64()
		}
		attrs[a] = datagen.AttrSpec{
			Name:        fmt.Sprintf("a%d", a),
			Cardinality: 2 + rng.Intn(3),
			Align:       align,
		}
	}
	return datagen.Config{
		Name:     fmt.Sprintf("diff%d", trial),
		Records:  40 + rng.Intn(81),
		Attrs:    attrs,
		Clusters: clusters,
		Skew:     rng.Float64(),
		Seed:     rng.Int63(),
	}
}

// randomDiffQuery picks a random focal region, item-attribute set and
// thresholds over the dataset's vocabulary.
func randomDiffQuery(rng *rand.Rand, ds *Dataset) Query {
	attrs := ds.Attributes()
	q := Query{
		Range:         map[string][]string{},
		MinSupport:    0.2 + 0.4*rng.Float64(),
		MinConfidence: 0.4 + 0.5*rng.Float64(),
		MaxConsequent: rng.Intn(3),
	}
	for _, ai := range rng.Perm(len(attrs))[:rng.Intn(3)] {
		vals, _ := ds.Values(attrs[ai])
		keep := 1 + rng.Intn(len(vals))
		perm := rng.Perm(len(vals))[:keep]
		sel := make([]string, 0, keep)
		for _, vi := range perm {
			sel = append(sel, vals[vi])
		}
		q.Range[attrs[ai]] = sel
	}
	if rng.Intn(2) == 0 && len(attrs) > 2 {
		n := 2 + rng.Intn(len(attrs)-1)
		for _, ai := range rng.Perm(len(attrs))[:min(n, len(attrs))] {
			q.ItemAttributes = append(q.ItemAttributes, attrs[ai])
		}
	}
	return q
}

// oracleMIPRules derives the MIP-plan answer from scratch.
func oracleMIPRules(sp *itemset.Space, tids []*bitset.Set, m int, mask []bool,
	primary float64, minCount, size int, minConf float64, maxCons int,
	localCount func(itemset.Set) int) []rules.Rule {
	primaryCount := charm.CountFor(primary, m)
	closure := func(b itemset.Set) itemset.Set {
		tb := tids[b[0]].Clone()
		for _, it := range b[1:] {
			tb.And(tids[it])
		}
		var out itemset.Set
		for it := 0; it < sp.NumItems(); it++ {
			if tb.SubsetOf(tids[it]) {
				out = append(out, itemset.Item(it))
			}
		}
		return out
	}
	seen := make(map[string]bool)
	var bodies []itemset.Set
	for _, z := range charm.BruteForceClosed(tids, m, primaryCount) {
		body, all := z.Items.RestrictedTo(sp, mask)
		if len(body) < 2 {
			continue
		}
		if !all {
			body, _ = closure(body).RestrictedTo(sp, mask)
			if len(body) < 2 {
				continue
			}
		}
		if k := body.Key(); !seen[k] {
			seen[k] = true
			bodies = append(bodies, body)
		}
	}
	// The bodies are distinct, so are the rules split from them.
	var out []rules.Rule
	for _, body := range bodies {
		if local := localCount(body); local >= minCount {
			out = append(out, enumerateSplits(body, local, size, maxCons, minConf, localCount)...)
		}
	}
	rules.SortCanonical(out)
	return out
}

// oracleARMRules derives the from-scratch plan's answer independently.
func oracleARMRules(sp *itemset.Space, tids []*bitset.Set, dq *bitset.Set, m int,
	mask []bool, minCount, size int, minConf float64, maxCons int,
	localCount func(itemset.Set) int) []rules.Rule {
	localTids := make([]*bitset.Set, sp.NumItems())
	for a := 0; a < sp.NumAttrs(); a++ {
		if !mask[a] {
			continue
		}
		for v := 0; v < sp.Cardinality(a); v++ {
			it := sp.ItemOf(a, v)
			localTids[it] = bitset.Intersect(dq, tids[it])
		}
	}
	// The closed sets are distinct, so are the rules split from them.
	var out []rules.Rule
	for _, cl := range charm.BruteForceClosed(localTids, m, minCount) {
		if len(cl.Items) >= 2 {
			out = append(out, enumerateSplits(cl.Items, cl.Support, size, maxCons, minConf, localCount)...)
		}
	}
	rules.SortCanonical(out)
	return out
}

// enumerateSplits emits every antecedent/consequent split of body whose
// confidence reaches minConf, by exhaustive enumeration.
func enumerateSplits(body itemset.Set, local, size, maxCons int, minConf float64,
	localCount func(itemset.Set) int) []rules.Rule {
	n := len(body)
	capY := maxCons
	if capY <= 0 || capY > n-1 {
		capY = n - 1
	}
	var out []rules.Rule
	for bits := 1; bits < 1<<n-1; bits++ {
		var x, y itemset.Set
		for i, it := range body {
			if bits&(1<<i) != 0 {
				y = append(y, it)
			} else {
				x = append(x, it)
			}
		}
		if len(y) > capY {
			continue
		}
		xc := localCount(x)
		if xc <= 0 {
			continue
		}
		conf := float64(local) / float64(xc)
		if conf < minConf {
			continue
		}
		out = append(out, rules.Rule{
			Antecedent:      x,
			Consequent:      y,
			SupportCount:    local,
			AntecedentCount: xc,
			ConsequentCount: localCount(y),
			SubsetSize:      size,
			Support:         float64(local) / float64(size),
			Confidence:      conf,
		})
	}
	return out
}

// wrapExpected converts oracle rules to the facade representation the
// engine returns.
func wrapExpected(sp *itemset.Space, rs []rules.Rule) []Rule {
	var out []Rule
	for _, r := range rs {
		out = append(out, wrapRule(r, sp.Labels(r.Antecedent), sp.Labels(r.Consequent)))
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestLifecycleDifferential checks that an engine run at GOMAXPROCS 4
// is indistinguishable from one run serially, at GOMAXPROCS 1, over an
// engine's whole life: on
// four randomized datasets, Explain's six estimates must be equal and
// all six forced plans and Auto must return byte-identical rules AND
// statistics — fresh, with a live delta (inserts and deletes), after a
// rebuild (ids compacted), and after post-rebuild ingestion with
// deletes. Both engines persist to byte-identical v6 snapshots with and
// without a delta, and a reloaded snapshot answers and re-saves
// exactly.
func TestLifecycleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	totalRules := 0
	for _, trial := range []int{101, 102, 103, 107} {
		totalRules += runLifecycleDifferential(t, rng, trial)
	}
	if totalRules == 0 {
		t.Fatal("no trial produced any rules; the differential comparison is vacuous")
	}
}

func runLifecycleDifferential(t *testing.T, rng *rand.Rand, trial int) int {
	t.Helper()
	cfg := randomDiffConfig(rng, trial)
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatalf("%s: generate: %v", cfg.Name, err)
	}
	ds := &Dataset{rel: d}
	primary := 0.15 + 0.2*rng.Float64()
	open := func() (*Engine, error) { return Open(ds, Options{PrimarySupport: primary}) }
	ser, err := atProcs(1, open)
	if err != nil {
		t.Fatalf("%s: open serial: %v", cfg.Name, err)
	}
	par, err := atProcs(4, open)
	if err != nil {
		t.Fatalf("%s: open parallel: %v", cfg.Name, err)
	}

	queries := make([]Query, 2)
	for i := range queries {
		queries[i] = randomDiffQuery(rng, ds)
	}
	forced := []Plan{SEV, SVS, SSEV, SSVS, SSEUV, ARM}

	totalRules := 0
	compare := func(stage string) {
		t.Helper()
		for qi, q := range queries {
			estS, err := atProcs(1, func() ([]PlanEstimate, error) { return ser.Explain(q) })
			if err != nil {
				t.Fatalf("%s %s query %d: explain serial: %v", cfg.Name, stage, qi, err)
			}
			estP, err := atProcs(4, func() ([]PlanEstimate, error) { return par.Explain(q) })
			if err != nil {
				t.Fatalf("%s %s query %d: explain parallel: %v", cfg.Name, stage, qi, err)
			}
			if !reflect.DeepEqual(estP, estS) {
				t.Fatalf("%s %s query %d: parallel estimates differ from serial\ngot:  %+v\nwant: %+v",
					cfg.Name, stage, qi, estP, estS)
			}
			for _, plan := range append(forced, Auto) {
				pq := q
				pq.Plan = plan
				label := fmt.Sprintf("%s %s query %d plan %s", cfg.Name, stage, qi, plan)
				resS, err := atProcs(1, func() (*Result, error) { return ser.Mine(pq) })
				if err != nil {
					t.Fatalf("%s: serial: %v", label, err)
				}
				resP, err := atProcs(4, func() (*Result, error) { return par.Mine(pq) })
				if err != nil {
					t.Fatalf("%s: parallel: %v", label, err)
				}
				if !reflect.DeepEqual(resP.Rules, resS.Rules) {
					t.Fatalf("%s: parallel rules differ from serial\ngot:  %v\nwant: %v",
						label, resP.Rules, resS.Rules)
				}
				ss, sp := resS.Stats, resP.Stats
				ss.DurationNanos, sp.DurationNanos = 0, 0
				if sp != ss {
					t.Fatalf("%s: parallel stats differ from serial\nserial:   %+v\nparallel: %+v",
						label, ss, sp)
				}
				totalRules += len(resS.Rules)
			}
		}
	}
	// sameSnapshot saves both engines, requires byte-identical v6
	// streams, and returns the serial one.
	sameSnapshot := func(stage string) []byte {
		t.Helper()
		var bufS, bufP bytes.Buffer
		if err := ser.Save(&bufS); err != nil {
			t.Fatalf("%s %s: save serial: %v", cfg.Name, stage, err)
		}
		if err := par.Save(&bufP); err != nil {
			t.Fatalf("%s %s: save parallel: %v", cfg.Name, stage, err)
		}
		if !bytes.Equal(bufP.Bytes(), bufS.Bytes()) {
			t.Fatalf("%s %s: snapshot bytes differ (%d vs %d bytes)", cfg.Name, stage, bufP.Len(), bufS.Len())
		}
		if !bytes.Contains(bufS.Bytes()[:64], []byte("COLARM-MIP-v6")) {
			t.Fatalf("%s %s: snapshot does not carry the v6 magic", cfg.Name, stage)
		}
		return bufS.Bytes()
	}

	compare("fresh")

	// Live delta: one batch of inserts plus deletes, applied to both
	// engines identically.
	ins, dels := randomIngestBatch(rng, ds, d.NumRecords(), true)
	for name, e := range map[string]*Engine{"serial": ser, "parallel": par} {
		if _, err := e.Ingest(ins, dels); err != nil {
			t.Fatalf("%s: ingest into %s: %v", cfg.Name, name, err)
		}
	}
	compare("delta")
	sameSnapshot("delta")

	// Rebuild: both engines re-mine the merged dataset with compacted
	// record ids. Every query surface must still agree exactly.
	ctx := context.Background()
	ser2, err := atProcs(1, func() (*Engine, error) { return ser.Rebuild(ctx) })
	if err != nil {
		t.Fatalf("%s: rebuild serial: %v", cfg.Name, err)
	}
	par2, err := atProcs(4, func() (*Engine, error) { return par.Rebuild(ctx) })
	if err != nil {
		t.Fatalf("%s: rebuild parallel: %v", cfg.Name, err)
	}
	ser, par = ser2, par2
	compare("rebuilt")

	// The rebuilt engines hold the same records under the same ids, so
	// they persist to the same bytes and draw the id-space boundary at
	// the same place.
	snap := sameSnapshot("rebuilt")
	n := ser.Dataset().NumRecords()
	if got := par.Dataset().NumRecords(); got != n {
		t.Fatalf("%s: rebuilt parallel holds %d records, serial %d", cfg.Name, got, n)
	}
	for name, e := range map[string]*Engine{"serial": ser, "parallel": par} {
		if _, err := e.Ingest(nil, []int{n}); !errors.Is(err, ErrBadRecordID) {
			t.Fatalf("%s: rebuilt %s: delete of id %d past the %d compacted records: %v, want ErrBadRecordID", cfg.Name, name, n, n, err)
		}
	}

	// The rebuilt snapshot must round-trip through save/load, keep
	// answering exactly and re-save to the same bytes.
	loaded, err := atProcs(1, func() (*Engine, error) { return LoadEngine(bytes.NewReader(snap), Options{}) })
	if err != nil {
		t.Fatalf("%s: load rebuilt: %v", cfg.Name, err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatalf("%s: save reloaded: %v", cfg.Name, err)
	}
	if !bytes.Equal(again.Bytes(), snap) {
		t.Fatalf("%s: reloaded snapshot re-saves to different bytes (%d vs %d)", cfg.Name, again.Len(), len(snap))
	}
	for qi, q := range queries {
		for _, plan := range forced {
			pq := q
			pq.Plan = plan
			resS, err := atProcs(1, func() (*Result, error) { return ser.Mine(pq) })
			if err != nil {
				t.Fatalf("%s loaded query %d plan %s: serial: %v", cfg.Name, qi, plan, err)
			}
			resL, err := atProcs(1, func() (*Result, error) { return loaded.Mine(pq) })
			if err != nil {
				t.Fatalf("%s loaded query %d plan %s: %v", cfg.Name, qi, plan, err)
			}
			ss, sl := resS.Stats, resL.Stats
			ss.DurationNanos, sl.DurationNanos = 0, 0
			if !reflect.DeepEqual(resL.Rules, resS.Rules) || sl != ss {
				t.Fatalf("%s loaded query %d plan %s: loaded snapshot diverges from serial", cfg.Name, qi, plan)
			}
		}
	}

	// Post-rebuild ingestion: the batch deletes too, anywhere up to the
	// last compacted id.
	ins2, dels2 := randomIngestBatch(rng, ds, n, true)
	dels2 = append(dels2, n-1)
	for name, e := range map[string]*Engine{"serial": ser, "parallel": par} {
		if _, err := e.Ingest(ins2, dels2); err != nil {
			t.Fatalf("%s: post-rebuild ingest into %s: %v", cfg.Name, name, err)
		}
	}
	compare("post-rebuild delta")

	return totalRules
}

// randomIngestBatch builds a random label-form insert batch over the
// dataset's vocabulary, plus (optionally) random deletes over the id
// space [0, idSpace).
func randomIngestBatch(rng *rand.Rand, ds *Dataset, idSpace int, withDeletes bool) ([]map[string]string, []int) {
	attrs := ds.Attributes()
	ins := make([]map[string]string, 3+rng.Intn(6))
	for i := range ins {
		rec := make(map[string]string, len(attrs))
		for _, a := range attrs {
			vals, _ := ds.Values(a)
			rec[a] = vals[rng.Intn(len(vals))]
		}
		ins[i] = rec
	}
	var dels []int
	if withDeletes {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			dels = append(dels, rng.Intn(idSpace))
		}
	}
	return ins, dels
}
