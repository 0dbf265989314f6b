package mip

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

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
// foreign files and other format versions — the v2–v5 streams of
// earlier releases included — from the first value alone: a typed
// qerr.ErrSnapshotVersion instead of a garbled payload decode.
//
// The payload is one snapshot value: the rows as one row-major arena of
// value indices, and the engine-level metadata (primary-support
// fraction, generation, the live-ingestion delta), so a snapshot taken
// mid-ingest restores to the exact same answers.
const snapshotMagic = "COLARM-MIP-v6"

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
}

// snapshot is the payload ReadSnapshot reads.
type snapshot struct {
	// Dataset.
	Name  string
	Attrs []snapAttr
	Rows  []int32 // row-major value indices, m*n entries

	// Index parameters.
	PrimaryCount int
	Fanout       int

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

// ReadSnapshot restores an index and its engine metadata from a v6
// stream. Any other stream — an older or newer COLARM snapshot, or a
// foreign file — fails with qerr.ErrSnapshotVersion before any payload
// decoding. A stream that recorded no primary fraction reads back with
// one recovered from its primary count (see SnapshotMeta).
func ReadSnapshot(r io.Reader) (*Index, SnapshotMeta, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: %w: stream does not start with a snapshot version marker", qerr.ErrSnapshotVersion)
	}
	if magic != snapshotMagic {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: %w: snapshot is %q, this build reads %q", qerr.ErrSnapshotVersion, magic, snapshotMagic)
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
// its index at the recorded primary count.
func decodeSnapshot(snap *snapshot) (*Index, error) {
	if len(snap.Attrs) == 0 {
		return nil, fmt.Errorf("mip: snapshot has no attributes")
	}
	n := len(snap.Attrs)
	if len(snap.Rows)%n != 0 {
		return nil, fmt.Errorf("mip: snapshot row data length %d not divisible by %d attributes", len(snap.Rows), n)
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
	// The count comes from the stream and CHARM mines at it: below 1 it
	// would ask for every itemset. An index of no records was built at
	// CountFor's floor of 1, so 1 stays allowed there.
	if count := snap.PrimaryCount; count < 1 || count > max(m, 1) {
		return nil, fmt.Errorf("mip: snapshot primary count %d outside [1, %d records]", count, m)
	}
	return build(d, snap.PrimaryCount, snap.Fanout)
}
