package apriori

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/relation"
)

func toyDataset(t testing.TB) (*relation.Dataset, *itemset.Space) {
	t.Helper()
	b := relation.NewBuilder("toy", "X", "Y", "Z")
	rows := [][]string{
		{"x0", "y0", "z0"},
		{"x0", "y0", "z1"},
		{"x0", "y1", "z0"},
		{"x1", "y0", "z0"},
		{"x0", "y0", "z0"},
		{"x1", "y1", "z1"},
	}
	for _, r := range rows {
		if err := b.AddRecord(r...); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	return d, itemset.NewSpace(d)
}

func TestMineValidation(t *testing.T) {
	d, sp := toyDataset(t)
	if _, err := Mine(d, sp, 0, 0); err == nil {
		t.Error("minCount 0 must error")
	}
	if _, err := Mine(d, sp, 1, -1); err == nil {
		t.Error("negative maxLen must error")
	}
}

func TestSupportsAgainstHandCount(t *testing.T) {
	d, sp := toyDataset(t)
	res, err := Mine(d, sp, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	x0, _ := sp.ParseItem("X=x0")
	y0, _ := sp.ParseItem("Y=y0")
	z0, _ := sp.ParseItem("Z=z0")
	cases := []struct {
		set  itemset.Set
		want int
	}{
		{itemset.NewSet(x0), 4},
		{itemset.NewSet(y0), 4},
		{itemset.NewSet(z0), 4},
		{itemset.NewSet(x0, y0), 3},
		{itemset.NewSet(x0, z0), 3},
		{itemset.NewSet(x0, y0, z0), 2},
	}
	for _, c := range cases {
		if got := res.Support(c.set); got != c.want {
			t.Errorf("Support(%s) = %d, want %d", c.set.Format(sp), got, c.want)
		}
	}
	if res.Support(itemset.NewSet()) != -1 {
		t.Error("empty set support must be -1")
	}
	if res.Support(itemset.NewSet(x0, y0, z0, 99)) != -1 {
		t.Error("overlong set support must be -1")
	}
}

func TestMaxLenCapsLevels(t *testing.T) {
	d, sp := toyDataset(t)
	res, err := Mine(d, sp, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(res.Levels))
	}
	for _, f := range res.All() {
		if len(f.Items) > 2 {
			t.Errorf("itemset %v exceeds maxLen", f.Items)
		}
	}
}

func TestDownwardClosureHolds(t *testing.T) {
	d, sp := toyDataset(t)
	res, err := Mine(d, sp, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for li := 1; li < len(res.Levels); li++ {
		for _, f := range res.Levels[li] {
			// Every (k-1)-subset must be frequent with >= support.
			for drop := range f.Items {
				sub := make(itemset.Set, 0, len(f.Items)-1)
				for i, it := range f.Items {
					if i != drop {
						sub = append(sub, it)
					}
				}
				s := res.Support(sub)
				if s < f.Support {
					t.Errorf("subset %v support %d < superset %v support %d", sub, s, f.Items, f.Support)
				}
			}
		}
	}
}

func randomTidsets(r *rand.Rand) ([]*bitset.Set, int) {
	m := 5 + r.Intn(20)
	nItems := 4 + r.Intn(8)
	ts := make([]*bitset.Set, nItems)
	for i := range ts {
		s := bitset.New(m)
		for rec := 0; rec < m; rec++ {
			if r.Intn(3) == 0 {
				s.Add(rec)
			}
		}
		ts[i] = s
	}
	return ts, m
}

// Property: Apriori supports equal brute-force tidset intersections for
// every reported itemset, and its closed subset equals CHARM's output.
func TestQuickAprioriCrossChecksCharm(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts, m := randomTidsets(r)
		minCount := 1 + r.Intn(4)
		res, err := MineTidsets(ts, m, minCount, 0)
		if err != nil {
			return false
		}
		// Each reported support equals the true intersection count.
		for _, f := range res.All() {
			inter := bitset.New(m)
			inter.Fill()
			for _, it := range f.Items {
				inter.And(ts[it])
			}
			if inter.Count() != f.Support || !inter.Equal(f.Tids) {
				return false
			}
		}
		// Closed filter matches CHARM.
		items, vecs, err := charm.Frequent(ts, m, minCount)
		if err != nil {
			return false
		}
		ch, err := charm.MineVectors(context.Background(), items, vecs, m, minCount, nil)
		if err != nil {
			return false
		}
		closed := res.ClosedOnly()
		if len(closed) != ch.Len() {
			return false
		}
		cm := map[string]int{}
		for id := 0; id < ch.Len(); id++ {
			cm[ch.Items(id).Key()] = ch.Support(id)
		}
		for _, f := range closed {
			if s, ok := cm[f.Items.Key()]; !ok || s != f.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every frequent itemset found by exhaustive enumeration is
// found by Apriori (completeness) and vice versa (soundness).
func TestQuickAprioriCompleteness(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts, m := randomTidsets(r)
		minCount := 1 + r.Intn(4)
		res, err := MineTidsets(ts, m, minCount, 0)
		if err != nil {
			return false
		}
		got := map[string]int{}
		for _, f := range res.All() {
			got[f.Items.Key()] = f.Support
		}
		// Exhaustive DFS enumeration.
		want := map[string]int{}
		var dfs func(start int, cur itemset.Set, tids *bitset.Set)
		dfs = func(start int, cur itemset.Set, tids *bitset.Set) {
			if len(cur) > 0 {
				want[cur.Key()] = tids.Count()
			}
			for k := start; k < len(ts); k++ {
				nt := bitset.Intersect(tids, ts[k])
				if nt.Count() < minCount {
					continue
				}
				dfs(k+1, append(cur.Clone(), itemset.Item(k)), nt)
			}
		}
		full := bitset.New(m)
		full.Fill()
		dfs(0, nil, full)
		if len(got) != len(want) {
			return false
		}
		for k, s := range want {
			if got[k] != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
