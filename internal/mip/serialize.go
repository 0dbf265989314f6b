package mip

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/qerr"
	"colarm/internal/relation"
)

// The MIP-index is built offline from the relation (the POQM contract),
// so a snapshot is the relation plus the engine state around it: the
// dataset's dictionaries and rows, the primary count and R-tree fanout
// the index was built at, and the engine metadata. Loading builds the
// index with the code Build runs, so a loaded index is exactly the one a
// fresh build of the same rows holds, and nothing read from the stream
// is trusted as an index structure.

// snapshotMagic versions the serialization format. It is written as a
// standalone gob string ahead of the payload, so a reader rejects
// foreign files and other format versions — the v2, v3 and v4 streams of
// earlier releases included — from the first value alone: a typed
// qerr.ErrSnapshotVersion instead of a garbled payload decode.
//
// The payload is one snapshot value: the rows as one row-major arena of
// value indices, and the engine-level metadata (primary-support
// fraction, generation, the live-ingestion delta), so a snapshot taken
// mid-ingest restores to the exact same answers.
const snapshotMagic = "COLARM-MIP-v6"

// snapshotMagicV5 marks the previous format, which also stored every
// CFI's items, tidset and box in slab arenas. ReadSnapshot still reads
// it into the same snapshot value: gob skips the stream's arenas
// (ItemArena, ItemOff, Supports, TidArena, TidOff, BoxArena), which the
// struct has no fields for, and the index is built from the rows.
const snapshotMagicV5 = "COLARM-MIP-v5"

// SnapshotMeta is the engine-level state a snapshot carries alongside
// the relation.
type SnapshotMeta struct {
	// Primary is the primary-support fraction the index was mined at;
	// the delta store re-mines merged views at this same fraction. A
	// stream that recorded none (0) reads back with the primary count
	// over the live records in its place.
	Primary float64
	// Generation counts the engine's rebuilds since the original build.
	Generation uint64
	// DeltaRows are the buffered post-build inserts (value indices).
	DeltaRows [][]int32
	// DeltaDels are the deleted record ids (base or buffered id space).
	DeltaDels []int32
	// A v5 stream written by an older release may also carry a
	// Secondaries field (nested snapshots of extra indexes at lower
	// primary supports). gob skips a field this struct lacks, so such a
	// stream loads as the one index it was saved from.
}

// snapshot is the payload of both formats ReadSnapshot reads.
type snapshot struct {
	// Dataset.
	Name  string
	Attrs []snapAttr
	Rows  []int32 // row-major value indices, m*n entries

	// Index parameters.
	PrimaryCount int
	Fanout       int

	// Live is read, never written: older releases' sharded rebuilds kept
	// deleted records in Rows as ghosts outside this mask (a bitset
	// binary encoding), and ReadSnapshot compacts such a stream at load
	// (see compactGhosts). Empty means every row is live.
	Live []byte

	Meta SnapshotMeta
}

type snapAttr struct {
	Name   string
	Values []string
}

// WriteSnapshot serializes the index's dataset and build parameters
// plus engine-level metadata (see SnapshotMeta); ReadSnapshot restores
// both.
func (x *Index) WriteSnapshot(w io.Writer, meta SnapshotMeta) error {
	snap := snapshot{
		Name:         x.Dataset.Name,
		PrimaryCount: x.PrimaryCount,
		Fanout:       x.RTree.Fanout(),
		Meta:         meta,
	}
	for _, a := range x.Dataset.Attrs {
		snap.Attrs = append(snap.Attrs, snapAttr{Name: a.Name, Values: a.Values})
	}
	m, n := x.Dataset.NumRecords(), x.Dataset.NumAttrs()
	snap.Rows = make([]int32, 0, m*n)
	for r := 0; r < m; r++ {
		for a := 0; a < n; a++ {
			snap.Rows = append(snap.Rows, int32(x.Dataset.Value(r, a)))
		}
	}
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(snapshotMagic); err != nil {
		return fmt.Errorf("mip: encoding snapshot magic: %w", err)
	}
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("mip: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

// ReadSnapshot restores an index and its engine metadata from a v6 or
// v5 stream. Any other stream — an older or newer COLARM snapshot, or a
// foreign file — fails with qerr.ErrSnapshotVersion before any payload
// decoding. A stream carrying ghost rows loads compacted: every record
// id of the index it returns names a live record. A stream that
// recorded no primary fraction reads back with one recovered from its
// primary count (see SnapshotMeta).
func ReadSnapshot(r io.Reader) (*Index, SnapshotMeta, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: %w: stream does not start with a snapshot version marker", qerr.ErrSnapshotVersion)
	}
	if magic != snapshotMagic && magic != snapshotMagicV5 {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: %w: snapshot is %q, this build reads %q and %q", qerr.ErrSnapshotVersion, magic, snapshotMagic, snapshotMagicV5)
	}
	var snap snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: decoding snapshot: %w", err)
	}
	idx, err := decodeSnapshot(&snap)
	if err != nil {
		return nil, SnapshotMeta{}, err
	}
	return idx, snap.Meta, nil
}

// decodeSnapshot rebuilds the dataset the payload describes and builds
// its index. A plain stream builds at its recorded primary count; a
// ghost stream at its primary fraction over the live rows, as the
// engine's first rebuild used to do.
func decodeSnapshot(snap *snapshot) (*Index, error) {
	if len(snap.Attrs) == 0 {
		return nil, fmt.Errorf("mip: snapshot has no attributes")
	}
	n := len(snap.Attrs)
	if len(snap.Rows)%n != 0 {
		return nil, fmt.Errorf("mip: snapshot row data length %d not divisible by %d attributes", len(snap.Rows), n)
	}
	var live *bitset.Set
	if len(snap.Live) > 0 {
		live = &bitset.Set{}
		if err := live.UnmarshalBinary(snap.Live); err != nil {
			return nil, fmt.Errorf("mip: live mask: %w", err)
		}
		if live.Len() != len(snap.Rows)/n {
			return nil, fmt.Errorf("mip: live mask capacity %d != %d records", live.Len(), len(snap.Rows)/n)
		}
	}
	names := make([]string, n)
	for i, a := range snap.Attrs {
		names[i] = a.Name
	}
	b := relation.NewBuilder(snap.Name, names...)
	for ai, a := range snap.Attrs {
		for _, v := range a.Values {
			b.AddValue(ai, v)
		}
	}
	row := make([]int, n)
	for off := 0; off < len(snap.Rows); off += n {
		if live != nil && !live.Contains(off/n) {
			continue // a ghost row
		}
		for a := 0; a < n; a++ {
			row[a] = int(snap.Rows[off+a])
		}
		if err := b.AddRecordIdx(row...); err != nil {
			return nil, fmt.Errorf("mip: snapshot record: %w", err)
		}
	}
	d := b.Build()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	m := d.NumRecords()
	if snap.Meta.Primary == 0 && m > 0 {
		snap.Meta.Primary = float64(snap.PrimaryCount) / float64(m)
	}
	count := snap.PrimaryCount
	if live != nil {
		if p := snap.Meta.Primary; !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("mip: ghost snapshot primary support %v outside (0,1]", p)
		}
		count = charm.CountFor(snap.Meta.Primary, m)
	}
	// The count comes from the stream and CHARM mines at it: below 1 it
	// would ask for every itemset. An index of no records was built at
	// CountFor's floor of 1, so 1 stays allowed there.
	if count < 1 || count > max(m, 1) {
		return nil, fmt.Errorf("mip: snapshot primary count %d outside [1, %d records]", count, m)
	}
	idx, err := build(d, count, snap.Fanout)
	if err != nil {
		return nil, err
	}
	if live != nil {
		snap.Meta.DeltaDels = compactGhosts(live, snap.Meta.DeltaDels)
	}
	return idx, nil
}

// compactGhosts moves the delta's deletes of a stream in the layout
// older releases' sharded rebuilds wrote — deleted records kept in the
// table as ghost rows outside the live mask, ids never renumbered — into
// the compacted id space of the index built over the live rows: a live
// base record to its rank among the live rows, a buffered row down by
// the number of ghosts, and a delete naming a ghost — a record that no
// longer exists — is dropped.
func compactGhosts(live *bitset.Set, deltaDels []int32) []int32 {
	rank := make([]int32, live.Len()) // base id -> compacted id, -1 for a ghost
	next := int32(0)
	for r := range rank {
		rank[r] = -1
		if live.Contains(r) {
			rank[r] = next
			next++
		}
	}
	ghosts := int32(len(rank)) - next
	var dels []int32
	for _, id := range deltaDels {
		switch {
		case id < 0 || int(id) >= len(rank):
			// A buffered row; an id outside every row stays outside, and
			// Ingest refuses it as it would have before.
			dels = append(dels, id-ghosts)
		case rank[id] >= 0:
			dels = append(dels, rank[id])
		}
	}
	return dels
}
