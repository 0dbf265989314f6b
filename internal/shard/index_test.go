package shard

import (
	"testing"

	"colarm/internal/datagen"
	"colarm/internal/mip"
)

// TestShardIndexLifecycle pins the per-shard catalog cache: the first
// scatter-mode surface mines every shard and fires the rebuild hook
// once per shard; a later ingest touching one shard invalidates only
// that shard's cache, so the next surface re-mines the drifted shard
// and keeps serving the clean shards' published catalogs unchanged
// (same pointers). Stats and hook timings must agree with the cached
// catalogs.
func TestShardIndexLifecycle(t *testing.T) {
	d := datagen.Salary()
	idx, err := mip.Build(d, mip.Options{PrimarySupport: 0.18, Fanout: 4})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	c := New(idx, Config{
		Shards:  k,
		Catalog: CatalogScatter,
		Primary: 0.18,
		MIP:     mip.Options{PrimarySupport: 0.18, Fanout: 4},
		Workers: 1,
	})

	type rebuild struct {
		shard int
		nanos int64
	}
	var fired []rebuild
	c.SetRebuildHook(func(shard int, buildNanos int64) {
		fired = append(fired, rebuild{shard, buildNanos})
	})

	// Age the collection so a merged surface exists, then force it.
	row := make([]int32, d.NumAttrs())
	for a := range row {
		row[a] = int32(d.Value(0, a))
	}
	if _, err := c.Ingest([][]int32{row}, nil); err != nil {
		t.Fatal(err)
	}
	if v := c.Surface(); v.Version != 1 || v.RTree != nil {
		t.Fatalf("aged collection returned the surface of version %d, want the merged one of version 1", v.Version)
	}

	if len(fired) != k {
		t.Fatalf("first view fired the rebuild hook %d times, want once per shard (%d)", len(fired), k)
	}
	first := c.Indexes()
	if len(first) != k {
		t.Fatalf("Indexes() returned %d entries, want %d", len(first), k)
	}
	stats := c.ShardStats()
	for s, si := range first {
		if si == nil {
			t.Fatalf("shard %d has no cached index after a scatter view", s)
		}
		if si.BuildNanos <= 0 {
			t.Errorf("shard %d index reports non-positive build time %d", s, si.BuildNanos)
		}
		if stats[s].IndexedCFIs != len(si.Mine.Closed) {
			t.Errorf("shard %d stat reports %d indexed CFIs, cached index holds %d",
				s, stats[s].IndexedCFIs, len(si.Mine.Closed))
		}
		if stats[s].IndexBuildNanos != si.BuildNanos {
			t.Errorf("shard %d stat reports build time %d, cached index %d",
				s, stats[s].IndexBuildNanos, si.BuildNanos)
		}
	}

	// Tombstone one base record: exactly one shard clock ticks. The
	// next view must rebuild only shards whose cache key moved — the
	// drifted shard always, a clean shard only if the frequent-item
	// universe shifted under it (then its key changed too).
	victim := 3
	drifted := c.Router().Of(victim)
	fired = nil
	if _, err := c.Ingest(nil, []int{victim}); err != nil {
		t.Fatal(err)
	}
	if v := c.Surface(); v.Version != 2 {
		t.Fatalf("after the delete the collection serves version %d, want 2", v.Version)
	}
	rebuiltShards := map[int]bool{}
	for _, rb := range fired {
		rebuiltShards[rb.shard] = true
	}
	if !rebuiltShards[drifted] {
		t.Errorf("shard %d drifted (delete of record %d) but was not rebuilt", drifted, victim)
	}
	second := c.Indexes()
	for s := range second {
		if rebuiltShards[s] {
			if second[s] == first[s] {
				t.Errorf("shard %d fired the rebuild hook but still serves the old index", s)
			}
			continue
		}
		if second[s] != first[s] {
			t.Errorf("clean shard %d was silently re-indexed (pointer changed without the hook firing)", s)
		}
		if second[s].UKey != second[drifted].UKey {
			t.Errorf("shard %d cache kept universe %q while the drifted shard moved to %q",
				s, second[s].UKey, second[drifted].UKey)
		}
	}
}
