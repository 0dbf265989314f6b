package colarm

import (
	"context"
	"fmt"
	"time"

	"colarm/internal/delta"
	"colarm/internal/mip"
)

// Staleness reports how far an engine's base index has drifted from the
// dataset it answers queries over. Queries remain exact at any
// staleness, and take the path they would take on the rebuilt index:
// each ingest version gets a merged view with its own packed R-tree.
// What grows with the drift is the cost of building that view, so once
// the changed rows reach 1/20 of the base records, Rebuild is the
// cheaper path.
//
// The embedded store report carries BufferedRows (records inserted since
// the index was built, minus any deleted again), Tombstones (records
// deleted since), Version (increments on every accepted Ingest batch; 0
// means the index is fresh) and RebuildRecommended (BufferedRows +
// Tombstones have reached 1/20 of the base records). Marshalled, a
// Staleness is the staleness object of /v1/ingest and
// /v1/datasets/{name}.
type Staleness struct {
	delta.Staleness
	// Generation is the engine's Generation.
	Generation uint64 `json:"-"`
}

// Ingest buffers live transactions — inserts and deletes — without
// rebuilding the index. Each insert maps every attribute name to a
// value label from the frozen vocabulary (ingest cannot introduce new
// attributes or values; that requires building a new engine from raw
// data). Deletes name record ids: 0..NumRecords()-1 for base records,
// then ids assigned to inserts in arrival order; within one generation
// a deleted id is never reused, and a Rebuild compacts the surviving
// records to 0..NumRecords()-1 in order.
// The batch is atomic — it is validated in full and either applied
// entirely or rejected without effect.
//
// Subsequent queries answer over the merged dataset exactly; the
// returned Staleness reports the accumulated drift and whether a
// Rebuild now pays for itself.
func (e *Engine) Ingest(inserts []map[string]string, deletes []int) (Staleness, error) {
	return e.IngestContext(context.Background(), inserts, deletes)
}

// IngestContext is Ingest under a context. Buffering is cheap (no
// mining happens), so the context is only consulted at entry.
func (e *Engine) IngestContext(ctx context.Context, inserts []map[string]string, deletes []int) (Staleness, error) {
	if err := ctx.Err(); err != nil {
		return e.Staleness(), err
	}
	rows, err := e.resolveRows(inserts)
	if err != nil {
		return e.Staleness(), err
	}
	st, err := e.delta.Ingest(rows, deletes)
	if err == nil {
		e.metrics.ingestBatches.Inc()
		e.metrics.ingestRows.Add(int64(len(rows)))
		e.metrics.ingestDeletes.Add(int64(len(deletes)))
	}
	return e.wrapStaleness(st), err
}

// resolveRows maps label-form records onto value-index rows, rejecting
// anything outside the engine's frozen vocabulary.
func (e *Engine) resolveRows(inserts []map[string]string) ([][]int32, error) {
	rel := e.ds.rel
	n := rel.NumAttrs()
	rows := make([][]int32, 0, len(inserts))
	for i, rec := range inserts {
		row := make([]int32, n)
		seen := make([]bool, n)
		for name, label := range rec {
			ai := rel.AttrIndex(name)
			if ai < 0 {
				return nil, fmt.Errorf("colarm: insert %d: %w: %q", i, ErrUnknownAttribute, name)
			}
			v := rel.Attrs[ai].ValueIndex(label)
			if v < 0 {
				return nil, fmt.Errorf("colarm: insert %d: %w: attribute %q has no value %q", i, ErrUnknownValue, name, label)
			}
			row[ai], seen[ai] = int32(v), true
		}
		for ai := 0; ai < n; ai++ {
			if !seen[ai] {
				return nil, fmt.Errorf("colarm: insert %d: missing attribute %q", i, rel.Attrs[ai].Name)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Staleness reports the engine's current drift from its merged dataset.
func (e *Engine) Staleness() Staleness {
	return e.wrapStaleness(e.delta.Staleness())
}

func (e *Engine) wrapStaleness(st delta.Staleness) Staleness {
	return Staleness{Staleness: st, Generation: e.gen}
}

// Generation counts full rebuilds since the first build: 0 for an
// engine Open built, one more for each Rebuild, and what the snapshot
// recorded for an engine LoadEngine restored.
func (e *Engine) Generation() uint64 { return e.gen }

// Rebuild runs the offline phase over the merged dataset — base records
// minus deletions plus buffered inserts, ids compacted — and returns a
// fresh engine with an empty delta and an incremented generation. The
// fresh engine keeps this one's primary support, R-tree fanout and
// metrics registry. The receiver is left untouched and stays fully
// queryable, so callers can rebuild in the background and swap engines
// atomically when done.
func (e *Engine) Rebuild(ctx context.Context) (*Engine, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	merged, err := e.delta.MergedDataset()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	idx, err := mip.Build(merged, mip.Options{
		PrimarySupport: e.primary,
		Fanout:         e.idx.RTree.Fanout(),
	})
	if err != nil {
		return nil, err
	}
	fresh := newEngine(idx, e.primary, e.metrics.reg)
	fresh.gen = e.gen + 1
	e.metrics.rebuilds.Inc()
	e.metrics.rebuildSeconds.Observe(time.Since(start))
	return fresh, nil
}
