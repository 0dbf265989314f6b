package colarm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"colarm/internal/datagen"
)

// TestIngestDifferentialRebuild is the exactness proof for live
// ingestion: after every ingest batch (random inserts and tombstone
// deletes), each of the six plans executed against the stale engine —
// base index plus delta view — must return rules byte-identical to a
// from-scratch rebuild over the merged dataset, and each MIP plan must
// take the same path there: the merged surface packs its R-tree as the
// rebuild does, so SEARCH visits the same nodes and checks the same
// entries, and ELIMINATE and VERIFY do the same work. Interleavings are
// randomized; across trials this exercises well over a hundred distinct
// ingest/query interleavings.
func TestIngestDifferentialRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	interleavings, totalRules := 0, 0
	for trial := 0; trial < 6; trial++ {
		cfg := randomDiffConfig(rng, 100+trial)
		d, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatalf("trial %d: generate: %v", trial, err)
		}
		ds := &Dataset{rel: d}
		primary := 0.15 + 0.2*rng.Float64()
		eng, err := Open(ds, Options{PrimarySupport: primary})
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}

		attrs := ds.Attributes()
		vocab := make(map[string][]string, len(attrs))
		for _, a := range attrs {
			vocab[a], _ = ds.Values(a)
		}
		liveIDs := make([]int, d.NumRecords())
		for i := range liveIDs {
			liveIDs[i] = i
		}
		nextID := d.NumRecords()

		for step := 0; step < 4; step++ {
			// Random ingest batch: a few inserts drawn from the frozen
			// vocabulary, sometimes a few deletes of currently live ids.
			var inserts []map[string]string
			for i := 0; i < 1+rng.Intn(6); i++ {
				rec := make(map[string]string, len(attrs))
				for _, a := range attrs {
					rec[a] = vocab[a][rng.Intn(len(vocab[a]))]
				}
				inserts = append(inserts, rec)
			}
			var deletes []int
			if rng.Intn(2) == 0 && len(liveIDs) > 10 {
				for i := 0; i < 1+rng.Intn(3); i++ {
					j := rng.Intn(len(liveIDs))
					deletes = append(deletes, liveIDs[j])
					liveIDs = append(liveIDs[:j], liveIDs[j+1:]...)
				}
			}
			st, err := eng.Ingest(inserts, deletes)
			if err != nil {
				t.Fatalf("trial %d step %d: ingest: %v", trial, step, err)
			}
			for range inserts {
				liveIDs = append(liveIDs, nextID)
				nextID++
			}
			if st.Version != uint64(step+1) {
				t.Fatalf("trial %d step %d: staleness version %d, want %d", trial, step, st.Version, step+1)
			}

			// The independent ground truth: a full offline rebuild over
			// the merged dataset.
			rebuilt, err := eng.Rebuild(context.Background())
			if err != nil {
				t.Fatalf("trial %d step %d: rebuild: %v", trial, step, err)
			}
			if got, want := rebuilt.Dataset().NumRecords(), len(liveIDs); got != want {
				t.Fatalf("trial %d step %d: rebuilt dataset has %d records, want %d live", trial, step, got, want)
			}
			if rebuilt.Generation() != eng.Generation()+1 {
				t.Fatalf("trial %d step %d: rebuild generation %d, want %d", trial, step, rebuilt.Generation(), eng.Generation()+1)
			}
			if rst := rebuilt.Staleness(); rst.BufferedRows != 0 || rst.Tombstones != 0 || rst.Version != 0 {
				t.Fatalf("trial %d step %d: rebuilt engine not fresh: %+v", trial, step, rst)
			}

			for qi := 0; qi < 2; qi++ {
				q := randomDiffQuery(rng, ds)
				interleavings++
				for _, plan := range []Plan{SEV, SVS, SSEV, SSVS, SSEUV, ARM, Auto} {
					pq := q
					pq.Plan = plan
					label := fmt.Sprintf("trial %d step %d query %d plan %s (%+v, primary %.3f)",
						trial, step, qi, plan, q, primary)
					stale, err := eng.Mine(pq)
					if err != nil {
						t.Fatalf("%s: stale engine: %v", label, err)
					}
					fresh, err := rebuilt.Mine(pq)
					if err != nil {
						t.Fatalf("%s: rebuilt engine: %v", label, err)
					}
					if !reflect.DeepEqual(stale.Rules, fresh.Rules) {
						t.Fatalf("%s: base+delta rules diverge from rebuild\nstale: %v\nfresh: %v",
							label, stale.Rules, fresh.Rules)
					}
					if plan != ARM && plan != Auto && pathCounters(stale.Stats) != pathCounters(fresh.Stats) {
						t.Fatalf("%s: base+delta took another path than the rebuild\nstale: %+v\nfresh: %+v",
							label, pathCounters(stale.Stats), pathCounters(fresh.Stats))
					}
					totalRules += len(stale.Rules)
				}
			}
		}
	}
	if interleavings*7 < 100 {
		t.Fatalf("only %d plan comparisons ran; the interleaving coverage is too thin", interleavings*7)
	}
	if totalRules == 0 {
		t.Fatal("no comparison produced any rules; the differential is vacuous")
	}
}

// pathCounters are the operator counters of a MIP plan that depend on
// how it reached its rules: the R-tree nodes and entries SEARCH walked,
// the candidates it emitted, the record-level checks ELIMINATE ran and
// the lookups VERIFY made.
func pathCounters(st Stats) [5]int {
	return [5]int{st.RNodesVisited, st.REntriesChecked, st.Candidates, st.SupportChecks, st.OracleCalls}
}

// TestIngestValidation checks the vocabulary freeze and id-space
// validation, and that a rejected batch leaves the store untouched.
func TestIngestValidation(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	rec := func() map[string]string {
		m := make(map[string]string)
		for _, a := range ds.Attributes() {
			vals, _ := ds.Values(a)
			m[a] = vals[0]
		}
		return m
	}

	bad := rec()
	bad["Location"] = "Atlantis"
	if _, err := eng.Ingest([]map[string]string{bad}, nil); !errors.Is(err, ErrUnknownValue) {
		t.Fatalf("unknown value: got %v, want ErrUnknownValue", err)
	}
	bad = rec()
	bad["Nonexistent"] = "x"
	if _, err := eng.Ingest([]map[string]string{bad}, nil); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("unknown attribute: got %v, want ErrUnknownAttribute", err)
	}
	incomplete := rec()
	delete(incomplete, "Location")
	if _, err := eng.Ingest([]map[string]string{incomplete}, nil); err == nil {
		t.Fatal("missing attribute accepted")
	}
	if _, err := eng.Ingest(nil, []int{ds.NumRecords() + 5}); !errors.Is(err, ErrBadRecordID) {
		t.Fatalf("out-of-range delete: got %v, want ErrBadRecordID", err)
	}
	if st := eng.Staleness(); st.Version != 0 || st.BufferedRows != 0 || st.Tombstones != 0 {
		t.Fatalf("rejected batches mutated the store: %+v", st)
	}

	// A valid batch: one insert, one delete, atomically versioned.
	st, err := eng.Ingest([]map[string]string{rec()}, []int{0})
	if err != nil {
		t.Fatalf("valid batch: %v", err)
	}
	if st.Version != 1 || st.BufferedRows != 1 || st.Tombstones != 1 {
		t.Fatalf("staleness after one batch: %+v", st)
	}
	// Deleting the buffered insert (id = base record count) works too.
	st, err = eng.Ingest(nil, []int{ds.NumRecords()})
	if err != nil {
		t.Fatalf("delete buffered row: %v", err)
	}
	if st.BufferedRows != 0 || st.Tombstones != 2 {
		t.Fatalf("staleness after deleting the buffered row: %+v", st)
	}
}

// TestStalenessAllocsIndependentOfDelta pins what Staleness costs —
// every ingest acknowledgement and every dataset listing asks for it: a
// call allocates the same with one buffered row as with four thousand.
// A snapshot reload that replays the buffered delta, bumping no ingest
// metric, reports the same drift.
func TestStalenessAllocsIndependentOfDelta(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	row := make(map[string]string)
	for _, a := range ds.Attributes() {
		vals, _ := ds.Values(a)
		row[a] = vals[0]
	}
	rows := make([]map[string]string, 4095)
	for i := range rows {
		rows[i] = row
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(rows[:1], []int{0}); err != nil {
		t.Fatal(err)
	}
	few := testing.AllocsPerRun(20, func() { eng.Staleness() })
	if _, err := eng.Ingest(rows, []int{1, ds.NumRecords()}); err != nil {
		t.Fatal(err)
	}
	many := testing.AllocsPerRun(20, func() { eng.Staleness() })
	if few != many {
		t.Errorf("Staleness allocates %v times with 1 buffered row, %v with 4096", few, many)
	}
	st := eng.Staleness()
	if st.BufferedRows != 4095 || st.Tombstones != 3 {
		t.Fatalf("staleness %+v, want 4095 buffered rows and 3 tombstones", st.Staleness)
	}

	var snap bytes.Buffer
	if err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The replay is no fresh ingest: it bumps no ingest metric.
	batches := func(e *Engine) int64 {
		return e.metrics.reg.CounterWith("colarm_ingest_batches_total", `dataset="salary"`, "").Value()
	}
	if batches(eng) != 2 || batches(loaded) != 0 {
		t.Fatalf("ingest batches: %d saved, %d after the reload's replay; want 2 and 0", batches(eng), batches(loaded))
	}
	got := loaded.Staleness()
	if got.BufferedRows != st.BufferedRows || got.Tombstones != st.Tombstones || got.RebuildRecommended != st.RebuildRecommended {
		t.Fatalf("reloaded staleness %+v, saved %+v", got.Staleness, st.Staleness)
	}
}
