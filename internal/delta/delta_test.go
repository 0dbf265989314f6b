package delta

import (
	"errors"
	"reflect"
	"testing"

	"colarm/internal/mip"
	"colarm/internal/plans"
	"colarm/internal/pool"
	"colarm/internal/qerr"
	"colarm/internal/relation"
)

// surface is s.Surface, failing tb on an error.
func surface(tb testing.TB, s *Store) *plans.Surface {
	tb.Helper()
	v, err := s.Surface()
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func testIndex(t *testing.T) *mip.Index {
	t.Helper()
	b := relation.NewBuilder("t", "A", "B")
	rows := [][]string{
		{"a0", "b0"}, {"a0", "b1"}, {"a1", "b0"}, {"a1", "b1"},
		{"a0", "b0"}, {"a0", "b0"}, {"a1", "b0"}, {"a0", "b1"},
	}
	for _, r := range rows {
		if err := b.AddRecord(r...); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := mip.Build(b.Build(), mip.Options{PrimarySupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestStoreViewMergesRows(t *testing.T) {
	idx := testIndex(t)
	s := NewStore(idx, 0.2)
	if f := surface(t, s); f.Version != 0 || f.RTree != idx.RTree || f.Tree != idx.ITTree || f.Live != nil {
		t.Fatal("empty store must serve the frozen surface at version 0")
	}
	if _, err := s.Ingest([][]int32{{0, 0}, {1, 1}}, []int{2}); err != nil {
		t.Fatal(err)
	}
	v := surface(t, s)
	if v.Version != 1 || v.Tree == idx.ITTree {
		t.Fatal("non-empty store must serve the merged surface of its version")
	}
	// The merged boxes are packed as the offline build packs them.
	if v.RTree == idx.RTree || v.RTree.Size() != v.Tree.Size() || v.RTree.Fanout() != idx.RTree.Fanout() {
		t.Fatalf("merged R-tree holds %d entries at fanout %d, want the %d CFIs at the frozen fanout %d",
			v.RTree.Size(), v.RTree.Fanout(), v.Tree.Size(), idx.RTree.Fanout())
	}
	if err := v.RTree.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(v.Levels) != v.RTree.Height() {
		t.Fatalf("%d level stats for a tree of height %d", len(v.Levels), v.RTree.Height())
	}
	baseN := idx.Dataset.NumRecords()
	if v.NumRecords != baseN+2 {
		t.Fatalf("view capacity %d, want %d", v.NumRecords, baseN+2)
	}
	if got := v.Live.Count(); got != baseN+2-1 {
		t.Fatalf("live count %d, want %d", got, baseN+1)
	}
	if v.Live.Contains(2) || !v.Live.Contains(0) || !v.Live.Contains(baseN) {
		t.Fatal("Live does not reflect tombstones")
	}
	if v.Value(baseN, 0) != 0 || v.Value(baseN+1, 1) != 1 {
		t.Fatal("Value does not resolve buffered rows")
	}
	// Tombstoned record 2 ("a1","b0") must be cleared from item tidsets;
	// buffered rows must appear.
	sp := idx.Space
	if v.Tidsets[sp.ItemOf(0, 1)].Contains(2) {
		t.Fatal("tombstoned record still in merged tidset")
	}
	if !v.Tidsets[sp.ItemOf(0, 0)].Contains(baseN) {
		t.Fatal("buffered row missing from merged tidset")
	}
	// Same version → same cached surface; new version → new surface.
	if surface(t, s) != v {
		t.Fatal("surface not cached per version")
	}
	if _, err := s.Ingest(nil, []int{3}); err != nil {
		t.Fatal(err)
	}
	if surface(t, s) == v {
		t.Fatal("surface not invalidated on ingest")
	}
}

// TestViewBuildPanicIsNotKept panics in one box of a merged-view build:
// Surface returns it as a *pool.PanicError and keeps nothing, so the
// next call builds the version again, equal to another store's view of
// the same batch.
func TestViewBuildPanicIsNotKept(t *testing.T) {
	idx := testIndex(t)
	s, ref := NewStore(idx, 0.2), NewStore(idx, 0.2)
	for _, st := range []*Store{s, ref} {
		if _, err := st.Ingest([][]int32{{0, 0}, {1, 1}}, []int{2}); err != nil {
			t.Fatal(err)
		}
	}
	s.boxFault = func(id int) {
		if id == 0 {
			panic("box failed")
		}
	}
	v, err := s.Surface()
	var pe *pool.PanicError
	if !errors.As(err, &pe) || pe.Value != "box failed" || v != nil {
		t.Fatalf("Surface returned %v, %v; want the box's panic", v, err)
	}
	if s.merged != nil {
		t.Fatal("the failed view was kept")
	}
	s.boxFault = nil
	got, want := surface(t, s), surface(t, ref)
	same := got.Version == want.Version && got.Tree.Size() == want.Tree.Size()
	for id := 0; same && id < got.Tree.Size(); id++ {
		same = reflect.DeepEqual(got.RTree.Box(id), want.RTree.Box(id))
	}
	if !same {
		t.Fatal("the view built after the panic differs from another store's")
	}
}

func TestStoreValidation(t *testing.T) {
	idx := testIndex(t)
	s := NewStore(idx, 0.2)
	if _, err := s.Ingest([][]int32{{0}}, nil); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := s.Ingest([][]int32{{0, 9}}, nil); !errors.Is(err, qerr.ErrUnknownValue) {
		t.Fatalf("out-of-range value: got %v", err)
	}
	if _, err := s.Ingest(nil, []int{idx.Dataset.NumRecords()}); !errors.Is(err, qerr.ErrBadRecordID) {
		t.Fatalf("delete past id space: got %v", err)
	}
	if s.Staleness().Version != 0 {
		t.Fatal("rejected batches must leave the store empty")
	}
}

// TestRefreshPolicyBreakEven pins the refresh rule at its boundary:
// with (BufferedRows + Tombstones) × RebuildDivisor one base record short
// of the base size no rebuild is recommended, and the changed row that
// reaches it flips the recommendation, whether it is an insert or a
// delete.
func TestRefreshPolicyBreakEven(t *testing.T) {
	b := relation.NewBuilder("t", "A")
	for r := 0; r < 3*RebuildDivisor; r++ {
		if err := b.AddRecord([]string{"a0", "a1"}[r%2]); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := mip.Build(b.Build(), mip.Options{PrimarySupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, last := range []struct {
		name    string
		rows    [][]int32
		deletes []int
	}{{"insert", [][]int32{{0}}, nil}, {"delete", nil, []int{7}}} {
		s := NewStore(idx, 0.2)
		if _, err := s.Ingest(nil, nil); err != nil {
			t.Fatal(err)
		}
		if s.Staleness().RebuildRecommended {
			t.Fatalf("%s: an empty batch recommends a rebuild", last.name)
		}
		// Two changed rows: 2 × RebuildDivisor < 3 × RebuildDivisor.
		st, err := s.Ingest([][]int32{{1}}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if st.RebuildRecommended {
			t.Fatalf("%s: recommended at %d changed rows of %d", last.name, st.BufferedRows+st.Tombstones, idx.Dataset.NumRecords())
		}
		if st, err = s.Ingest(last.rows, last.deletes); err != nil {
			t.Fatal(err)
		}
		if !st.RebuildRecommended || st.BufferedRows+st.Tombstones != 3 {
			t.Fatalf("%s: not recommended at %+v", last.name, st)
		}
		if !s.Staleness().RebuildRecommended {
			t.Fatalf("%s: Staleness disagrees with the ingest reply", last.name)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	idx := testIndex(t)
	s := NewStore(idx, 0.2)
	if _, err := s.Ingest([][]int32{{0, 1}, {1, 0}}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(nil, []int{idx.Dataset.NumRecords()}); err != nil {
		t.Fatal(err)
	}
	rows, dels := s.Snapshot()
	r := NewStore(idx, 0.2)
	if _, err := r.Ingest(rows, dels); err != nil {
		t.Fatal(err)
	}
	a, b := s.Staleness(), r.Staleness()
	if a.BufferedRows != b.BufferedRows || a.Tombstones != b.Tombstones {
		t.Fatalf("snapshot round trip drifted: %+v vs %+v", a, b)
	}
	md, err := r.MergedDataset()
	if err != nil {
		t.Fatal(err)
	}
	want := idx.Dataset.NumRecords() - 1 + 2 - 1
	if md.NumRecords() != want {
		t.Fatalf("merged dataset has %d records, want %d", md.NumRecords(), want)
	}
	// Dictionaries are preserved verbatim, so the item space is stable.
	for ai, attr := range idx.Dataset.Attrs {
		if got := md.Attrs[ai].Cardinality(); got != attr.Cardinality() {
			t.Fatalf("attribute %q cardinality %d, want %d", attr.Name, got, attr.Cardinality())
		}
	}
}
