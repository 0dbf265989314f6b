package ittree

import (
	"fmt"
	"testing"

	"colarm/internal/charm"
	"colarm/internal/datagen"
	"colarm/internal/itemset"
)

// BenchmarkClosureID times the closure resolution VERIFY's oracle runs
// on a miss: ClosureID of a proper subset of a stored CFI (all its items
// but the last), over 512 CFIs spread across the tree, on chess @ 0.70
// and mushroom @ 0.05 — the mine_mip indexes. One op is one resolution.
func BenchmarkClosureID(b *testing.B) {
	for _, ds := range []struct {
		name    string
		cfg     datagen.Config
		primary float64
	}{
		{"chess", datagen.ChessConfig(1), 0.70},
		{"mushroom", datagen.MushroomConfig(1), 0.05},
	} {
		d, err := datagen.Generate(ds.cfg)
		if err != nil {
			b.Fatal(err)
		}
		sp := itemset.NewSpace(d)
		res, err := charm.MineSupport(d, sp, ds.primary)
		if err != nil {
			b.Fatal(err)
		}
		tr := Build(res, nil, sp.NumItems())
		var probes []itemset.Set
		for id, stride := 0, max(1, tr.Size()/512); id < tr.Size() && len(probes) < 512; id += stride {
			if items := tr.Items(id); len(items) > 1 {
				probes = append(probes, items[:len(items)-1])
			}
		}
		b.Run(fmt.Sprintf("%s/cfis=%d", ds.name, tr.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id, _ := tr.ClosureID(probes[i%len(probes)])
				closureSink += id
			}
		})
	}
}

var closureSink int
