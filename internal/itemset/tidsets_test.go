package itemset

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"colarm/internal/bitset"
	"colarm/internal/relation"
)

// TestItemTidsetsMatchAddAndOptimize holds the word-vector build to the
// id-by-id one it replaced — every record Added to its items' sets,
// then Optimize — field for field (reflect.DeepEqual compares each
// container's kind, cardinality and payload): over one partial
// container, past 2^16 records (a full container and a partial one),
// with skewed values so containers land on both sides of the array
// bound, with dictionary values no record holds, with a column whose
// values hold exactly the array bound's 1 024 records and one more in
// each container (E), and with a column unique per record (ID).
func TestItemTidsetsMatchAddAndOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 700, 5000, 70000} {
		cards := []int{1, 3, 12, 40, 3, m}
		b := relation.NewBuilder("t", "A", "B", "C", "D", "E", "ID")
		for a, card := range cards {
			for v := 0; v < card+1; v++ { // one value more than drawn
				b.AddValue(a, fmt.Sprintf("v%d", v))
			}
		}
		row := make([]int, len(cards))
		for r := 0; r < m; r++ {
			for a, card := range cards[:4] {
				row[a] = min(rng.Intn(card), rng.Intn(card)) // skewed to low values
			}
			switch p := r % (1 << 16); {
			case p < 1024:
				row[4] = 0
			case p < 2*1024+1:
				row[4] = 1
			default:
				row[4] = 2
			}
			row[5] = r
			if err := b.AddRecordIdx(row...); err != nil {
				t.Fatal(err)
			}
		}
		d := b.Build()
		sp := NewSpace(d)
		want := make([]*bitset.Set, sp.NumItems())
		for i := range want {
			want[i] = bitset.New(m)
		}
		for r := 0; r < m; r++ {
			for a := range cards {
				want[sp.ItemOf(a, d.Value(r, a))].Add(r)
			}
		}
		for i, got := range ItemTidsets(d, sp) {
			want[i].Optimize()
			if !got.Equal(want[i]) || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("m=%d item %d: tidset %d ids, want %d in Optimize's encoding", m, i, got.Count(), want[i].Count())
			}
		}
	}
}

// TestItemTidsetsScratchPerValue bounds what ItemTidsets allocates on a
// column unique per record at 70 000 records (two containers): the
// tidsets themselves — a Set, its two containers and a one-id array per
// value — and scratch linear in the records and the values. A dense
// word vector per value would take 70 000 × ⌈70 000/64⌉ words, over
// 600 MB, and fail the bound by two orders of magnitude.
func TestItemTidsetsScratchPerValue(t *testing.T) {
	const m = 70000
	b := relation.NewBuilder("t", "ID", "B")
	row := make([]int, 2)
	for r := 0; r < m; r++ {
		b.AddValue(0, fmt.Sprintf("r%d", r))
		row[0], row[1] = r, r%2
		if r < 2 {
			b.AddValue(1, fmt.Sprintf("b%d", r))
		}
		if err := b.AddRecordIdx(row...); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	sp := NewSpace(d)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ts := ItemTidsets(d, sp)
	runtime.ReadMemStats(&after)
	if got := ts[sp.ItemOf(0, m-1)].IDs(); len(got) != 1 || got[0] != m-1 {
		t.Fatalf("last id's tidset %v, want {%d}", got, m-1)
	}
	const perValue = 256 // Set, two containers, a small array, out's slot
	if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(perValue*m+32*m); alloc > bound {
		t.Fatalf("ItemTidsets allocated %d bytes over %d records, bound %d", alloc, m, bound)
	}
}
