package mip

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"colarm/internal/bitset"
	"colarm/internal/charm"
	"colarm/internal/itemset"
	"colarm/internal/qerr"
	"colarm/internal/relation"
)

// The MIP-index is built offline once (the POQM contract), so persisting
// it is the natural deployment shape: mine with CHARM on a build
// machine, ship the snapshot, and serve queries anywhere. The snapshot
// stores the dataset, the closed frequent itemsets with their tidsets,
// and the MIP bounding boxes; the cheap derived structures (per-item
// tidsets, the packed R-tree, statistics) are rebuilt on load in
// milliseconds, skipping the mining phase entirely.

// snapshotMagic versions the serialization format. It is written as a
// standalone gob string ahead of the payload, so a reader rejects
// foreign files and other format versions — the v2, v3 and v4 streams of
// earlier releases included — from the first value alone: a typed
// qerr.ErrSnapshotVersion instead of a garbled payload decode.
//
// The payload is the slab format matching the in-memory layout: CFI
// itemsets are one offset-indexed item arena, tidset encodings (the
// container encoding of package bitset) one offset-indexed byte
// arena, and boxes one inline Lo/Hi arena — a handful of large gob
// values instead of tens of thousands of small ones. Engine-level
// metadata (primary-support fraction, generation, the live-ingestion
// delta) rides in the same payload, so a snapshot taken mid-ingest
// restores to the exact same answers.
const snapshotMagic = "COLARM-MIP-v5"

// SnapshotMeta is the engine-level state a snapshot carries alongside
// the index itself.
type SnapshotMeta struct {
	// Primary is the primary-support fraction the index was mined at;
	// the delta store re-mines merged views at this same fraction.
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

// snapshotV5 is the slab payload: per-CFI data lives in offset-indexed
// arenas mirroring the flat in-memory layout.
type snapshotV5 struct {
	// Dataset.
	Name  string
	Attrs []snapAttr
	Rows  []int32 // row-major value indices, m*n entries

	// Index parameters.
	PrimaryCount int
	Fanout       int

	// CFI slabs. CFI i owns ItemArena[ItemOff[i]:ItemOff[i+1]],
	// TidArena[TidOff[i]:TidOff[i+1]] (a bitset.Set binary encoding) and
	// BoxArena[i*2n : (i+1)*2n] (n Lo values then n Hi values).
	ItemArena []int32
	ItemOff   []int32
	Supports  []int32
	TidArena  []byte
	TidOff    []int64
	BoxArena  []int32

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

// WriteTo serializes the index with empty engine metadata. The stream
// is self-contained: ReadIndex restores a fully functional index
// without re-mining.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	return x.WriteSnapshot(w, SnapshotMeta{})
}

// WriteSnapshot serializes the index plus engine-level metadata (see
// SnapshotMeta); ReadSnapshot restores both.
func (x *Index) WriteSnapshot(w io.Writer, meta SnapshotMeta) (int64, error) {
	bw := &countingWriter{w: bufio.NewWriter(w)}
	snap := snapshotV5{
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
	k := x.ITTree.Size()
	snap.ItemOff = make([]int32, k+1)
	snap.TidOff = make([]int64, k+1)
	snap.Supports = make([]int32, k)
	snap.BoxArena = make([]int32, 0, k*2*n)
	for id := 0; id < k; id++ {
		for _, it := range x.ITTree.Items(id) {
			snap.ItemArena = append(snap.ItemArena, int32(it))
		}
		snap.ItemOff[id+1] = int32(len(snap.ItemArena))
		// Marshal a canonical container form: the bytes written must
		// depend only on the tidset's content, not on the container
		// history its construction happened to leave behind, so equal
		// indexes always snapshot to equal bytes.
		canon := x.ITTree.Tids(id).Clone()
		canon.Optimize()
		tids, err := canon.MarshalBinary()
		if err != nil {
			return bw.n, err
		}
		snap.TidArena = append(snap.TidArena, tids...)
		snap.TidOff[id+1] = int64(len(snap.TidArena))
		snap.Supports[id] = int32(x.ITTree.Support(id))
		snap.BoxArena = append(snap.BoxArena, x.Boxes[id].Lo...)
		snap.BoxArena = append(snap.BoxArena, x.Boxes[id].Hi...)
	}
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(snapshotMagic); err != nil {
		return bw.n, fmt.Errorf("mip: encoding snapshot magic: %w", err)
	}
	if err := enc.Encode(&snap); err != nil {
		return bw.n, fmt.Errorf("mip: encoding snapshot: %w", err)
	}
	if err := bw.w.(*bufio.Writer).Flush(); err != nil {
		return bw.n, err
	}
	return bw.n, nil
}

// ReadIndex restores an index written by WriteTo, rebuilding the
// derived structures (item tidsets, packed R-tree, statistics).
func ReadIndex(r io.Reader) (*Index, error) {
	idx, _, err := ReadSnapshot(r)
	return idx, err
}

// ReadSnapshot restores an index and its engine metadata. A stream that
// is not a snapshot of exactly this format version — an older or newer
// COLARM snapshot, or a foreign file — fails with
// qerr.ErrSnapshotVersion before any payload decoding. A stream carrying
// ghost rows loads compacted: every record id of the index it returns
// names a live record.
func ReadSnapshot(r io.Reader) (*Index, SnapshotMeta, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var magic string
	if err := dec.Decode(&magic); err != nil {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: %w: stream does not start with a snapshot version marker", qerr.ErrSnapshotVersion)
	}
	if magic != snapshotMagic {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: %w: snapshot is %q, this build reads %q", qerr.ErrSnapshotVersion, magic, snapshotMagic)
	}
	var snap snapshotV5
	if err := dec.Decode(&snap); err != nil {
		return nil, SnapshotMeta{}, fmt.Errorf("mip: decoding snapshot: %w", err)
	}
	idx, err := decodeSnapshot(&snap)
	if err != nil {
		return nil, SnapshotMeta{}, err
	}
	return idx, snap.Meta, nil
}

// decodeSnapshot validates the slab payload and assembles the index it
// describes.
func decodeSnapshot(snap *snapshotV5) (*Index, error) {
	k := len(snap.Supports)
	if len(snap.ItemOff) != k+1 || len(snap.TidOff) != k+1 {
		return nil, fmt.Errorf("mip: snapshot slab offsets malformed: %d CFIs, %d item offsets, %d tid offsets", k, len(snap.ItemOff), len(snap.TidOff))
	}
	if len(snap.Attrs) == 0 {
		return nil, fmt.Errorf("mip: snapshot has no attributes")
	}
	n := len(snap.Attrs)
	if len(snap.BoxArena) != k*2*n {
		return nil, fmt.Errorf("mip: snapshot box arena has %d values, want %d", len(snap.BoxArena), k*2*n)
	}
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
	if live != nil {
		return compactGhosts(d, live, snap)
	}
	sp := itemset.NewSpace(d)

	res := &charm.Result{NumRecords: d.NumRecords(), MinCount: snap.PrimaryCount}
	boxes := make([]itemset.Box, k)
	for i := 0; i < k; i++ {
		io0, io1 := snap.ItemOff[i], snap.ItemOff[i+1]
		to0, to1 := snap.TidOff[i], snap.TidOff[i+1]
		if io0 < 0 || io1 < io0 || int(io1) > len(snap.ItemArena) || to0 < 0 || to1 < to0 || int(to1) > len(snap.TidArena) {
			return nil, fmt.Errorf("mip: snapshot CFI %d has out-of-range slab offsets", i)
		}
		tids := &bitset.Set{}
		if err := tids.UnmarshalBinary(snap.TidArena[to0:to1]); err != nil {
			return nil, fmt.Errorf("mip: CFI %d tidset: %w", i, err)
		}
		if tids.Len() != d.NumRecords() {
			return nil, fmt.Errorf("mip: CFI %d tidset capacity %d != %d records", i, tids.Len(), d.NumRecords())
		}
		// Normalize the container form: a restored index must
		// re-serialize identically to a fresh build whatever encoding
		// the stream's writer chose.
		tids.Optimize()
		items := make(itemset.Set, io1-io0)
		for j, it := range snap.ItemArena[io0:io1] {
			if it < 0 || int(it) >= sp.NumItems() {
				return nil, fmt.Errorf("mip: CFI %d item %d out of range", i, it)
			}
			items[j] = itemset.Item(it)
		}
		support := int(snap.Supports[i])
		if got := tids.Count(); got != support {
			return nil, fmt.Errorf("mip: CFI %d support %d != tidset count %d", i, support, got)
		}
		res.Closed = append(res.Closed, &charm.ClosedSet{Items: items, Tids: tids, Support: support})
		o := i * 2 * n
		boxes[i] = itemset.Box{Lo: snap.BoxArena[o : o+n], Hi: snap.BoxArena[o+n : o+2*n]}
	}

	return assemble(d, sp, itemset.ItemTidsets(d, sp), res, boxes, snap.PrimaryCount, Options{Fanout: snap.Fanout})
}

// compactGhosts finishes loading the layout older releases' sharded
// rebuilds wrote: deleted records kept in the table as ghost rows outside
// a live mask, ids never renumbered. d holds the live rows only, and the
// index is re-mined over them as the engine's first rebuild used to do:
// at the snapshot's primary fraction, or at its primary count over the
// live rows when no fraction was recorded. The stored catalog covers the
// same live rows but in the old id space, so it is not read. The delta's
// deletes in snap.Meta move into the compacted id space: a live base
// record to its rank among the live rows, a buffered row down by the
// number of ghosts, and a delete naming a ghost — a record that no
// longer exists — is dropped.
func compactGhosts(d *relation.Dataset, live *bitset.Set, snap *snapshotV5) (*Index, error) {
	primary := snap.Meta.Primary
	if primary == 0 && d.NumRecords() > 0 {
		primary = float64(snap.PrimaryCount) / float64(d.NumRecords())
	}
	idx, err := Build(d, Options{PrimarySupport: primary, Fanout: snap.Fanout})
	if err != nil {
		return nil, err
	}
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
	for _, id := range snap.Meta.DeltaDels {
		switch {
		case id < 0 || int(id) >= len(rank):
			// A buffered row; an id outside every row stays outside, and
			// Ingest refuses it as it would have before.
			dels = append(dels, id-ghosts)
		case rank[id] >= 0:
			dels = append(dels, rank[id])
		}
	}
	snap.Meta.DeltaDels = dels
	return idx, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
