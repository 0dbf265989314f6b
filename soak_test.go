package colarm

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"colarm/internal/datagen"
)

// TestIngestRebuildSoak interleaves concurrent mining, ingestion and
// rebuilds on one engine and checks no reader ever observes a torn
// generation. The writer swaps rebuilt engines through an atomic
// pointer while readers keep mining whichever engine they loaded; a
// full-domain query's SubsetSize equals the engine's live record
// count, so every observed size must be a count that was valid at some
// point of the (single-writer) history. A half-applied ingest or a
// rebuild serving a partially swapped index would surface as a count
// outside that set, as a query error, or as a race-detector report. Run it with -race; the
// op budget (readers × mines + writer ops) exceeds 10k interleavings.
func TestIngestRebuildSoak(t *testing.T) {
	cfg := randomDiffConfig(rand.New(rand.NewSource(20260810)), 0)
	cfg.Name = "soak"
	cfg.Records = 40
	d, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := &Dataset{rel: d}
	eng, err := Open(ds, Options{PrimarySupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	var cur atomic.Pointer[Engine]
	cur.Store(eng)

	// Every live-record count that has ever been (or is about to
	// become) valid. The writer registers the post-op count before
	// applying the op, and ops are atomic with respect to views, so a
	// reader racing a write legitimately sees either side — both are
	// in the set. The set only grows; sizes outside it are torn reads.
	var mu sync.Mutex
	valid := map[int]bool{d.NumRecords(): true}
	sizeValid := func(n int) bool {
		mu.Lock()
		defer mu.Unlock()
		return valid[n]
	}

	const (
		readers        = 4
		minesPerReader = 2300
		writerOps      = 1000
		rebuildEvery   = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			planPool := []Plan{SEV, SSVS, SSEUV, ARM, Auto}
			for j := 0; j < minesPerReader; j++ {
				q := Query{
					MinSupport:    0.25,
					MinConfidence: 0.5,
					Plan:          planPool[rng.Intn(len(planPool))],
				}
				res, err := cur.Load().Mine(q)
				if err != nil {
					errs <- fmt.Errorf("reader %d mine %d: %w", seed, j, err)
					return
				}
				if !sizeValid(res.Stats.SubsetSize) {
					errs <- fmt.Errorf("reader %d mine %d (plan %s): torn read, subset size %d was never a live record count",
						seed, j, res.Stats.Plan, res.Stats.SubsetSize)
					return
				}
			}
		}(int64(i))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		w := eng
		totalIDs := d.NumRecords()
		deleted := make(map[int]bool)
		lastGen := w.Generation()
		for op := 0; op < writerOps; op++ {
			if op%rebuildEvery == rebuildEvery-1 {
				fresh, err := w.Rebuild(context.Background())
				if err != nil {
					errs <- fmt.Errorf("writer rebuild at op %d: %w", op, err)
					return
				}
				if g := fresh.Generation(); g != lastGen+1 {
					errs <- fmt.Errorf("writer rebuild at op %d: generation %d after %d", op, g, lastGen)
					return
				}
				lastGen = fresh.Generation()
				w = fresh
				cur.Store(fresh)
				// A rebuild compacts the ids to the live records.
				totalIDs, deleted = totalIDs-len(deleted), make(map[int]bool)
				continue
			}
			ins, _ := randomIngestBatch(rng, ds, 0, false)
			var dels []int
			for n := rng.Intn(3); n > 0; n-- {
				dels = append(dels, rng.Intn(totalIDs))
			}
			live := totalIDs - len(deleted) + len(ins)
			for _, id := range dels {
				if !deleted[id] {
					live--
				}
			}
			mu.Lock()
			valid[live] = true
			mu.Unlock()
			if _, err := w.Ingest(ins, dels); err != nil {
				errs <- fmt.Errorf("writer ingest at op %d: %w", op, err)
				return
			}
			totalIDs += len(ins)
			for _, id := range dels {
				deleted[id] = true
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
