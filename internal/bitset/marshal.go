package bitset

import (
	"encoding/binary"
	"fmt"
)

// The binary format (written by MarshalBinary): an 8-byte magic, the
// capacity, then one record per container carrying its encoding — so
// snapshots persist the compressed form instead of re-inflating to dense
// words. The magic is chosen above the capacity sanity bound (2^40) the
// pre-hybrid dense format's readers applied to their first word, so such
// a build rejects a stream of this format with a clean "implausible
// capacity" error instead of misreading it; this package in turn refuses
// any stream that does not start with the magic.
const (
	// hybridMagic spells "COLARMV3" as a big-endian uint64; any value
	// above maxBits works, the mnemonic is for hex dumps.
	hybridMagic uint64 = 0x434F4C41524D5633
	// maxBits bounds the decoded capacity against corrupted input.
	maxBits = 1 << 40
	// legacyRunKind is the kind byte of a run record: sorted disjoint
	// inclusive [start,last] uint16 pairs. Earlier writers emitted it for
	// clustered containers, so v5 snapshots hold such records; the
	// decoder expands each into an array or a bitmap, and nothing writes
	// one any more.
	legacyRunKind uint8 = 3
)

// MarshalBinary encodes the set in the container format. It
// implements encoding.BinaryMarshaler so sets can be embedded in
// serialized index snapshots.
func (s *Set) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 16+len(s.ctrs))
	buf = binary.LittleEndian.AppendUint64(buf, hybridMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.n))
	for i := range s.ctrs {
		c := &s.ctrs[i]
		buf = append(buf, c.kind)
		switch c.kind {
		case emptyCtr:
		case arrayCtr:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.a)))
			for _, v := range c.a {
				buf = binary.LittleEndian.AppendUint16(buf, v)
			}
		case bitmapCtr:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.b)))
			for _, w := range c.b {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		default:
			return nil, fmt.Errorf("bitset: unknown container kind %d", c.kind)
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a set written by MarshalBinary, keeping the
// array and bitmap encodings the stream carries; a legacy run record
// becomes an array or a bitmap by cardinality.
func (s *Set) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("bitset: truncated header (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint64(data) != hybridMagic {
		return fmt.Errorf("bitset: stream does not start with the container-format magic")
	}
	data = data[8:]
	n := binary.LittleEndian.Uint64(data)
	if n > maxBits {
		return fmt.Errorf("bitset: implausible capacity %d", n)
	}
	// Every container occupies at least its kind byte, so a capacity the
	// remaining bytes cannot cover is refused before it sizes anything.
	if nc := numCtrs(int(n)); nc > len(data)-8 {
		return fmt.Errorf("bitset: capacity %d needs %d containers, stream has %d bytes left", n, nc, len(data)-8)
	}
	s.n = int(n)
	s.ctrs = make([]container, numCtrs(s.n))
	off := 8
	for ci := range s.ctrs {
		if off >= len(data) {
			return fmt.Errorf("bitset: truncated at container %d", ci)
		}
		c := &s.ctrs[ci]
		kind := data[off]
		off++
		switch kind {
		case emptyCtr:
			// zero value already empty
		case arrayCtr, legacyRunKind:
			cnt, rest, err := readCount(data, off, ci)
			if err != nil {
				return err
			}
			off = rest
			elems := cnt
			if kind == legacyRunKind {
				elems = 2 * cnt
			}
			if elems > ctrBits {
				return fmt.Errorf("bitset: container %d has %d elements", ci, elems)
			}
			if len(data)-off < 2*elems {
				return fmt.Errorf("bitset: truncated at container %d payload", ci)
			}
			a := make([]uint16, elems)
			for i := range a {
				a[i] = binary.LittleEndian.Uint16(data[off+2*i:])
			}
			off += 2 * elems
			if kind == arrayCtr {
				c.kind, c.a, c.card = arrayCtr, a, int32(len(a))
			} else if err := c.expandRuns(a, s.span(ci)); err != nil {
				return fmt.Errorf("bitset: container %d: %w", ci, err)
			}
		case bitmapCtr:
			cnt, rest, err := readCount(data, off, ci)
			if err != nil {
				return err
			}
			off = rest
			if cnt != ctrWords {
				return fmt.Errorf("bitset: container %d bitmap has %d words, want %d", ci, cnt, ctrWords)
			}
			if len(data)-off < 8*cnt {
				return fmt.Errorf("bitset: truncated at container %d payload", ci)
			}
			b := make([]uint64, cnt)
			for i := range b {
				b[i] = binary.LittleEndian.Uint64(data[off+8*i:])
			}
			off += 8 * cnt
			c.kind, c.b, c.card = bitmapCtr, b, bitmapCard(b)
		default:
			return fmt.Errorf("bitset: container %d has unknown kind %d", ci, kind)
		}
		if err := c.validate(s.span(ci)); err != nil {
			return fmt.Errorf("bitset: container %d: %w", ci, err)
		}
	}
	if off != len(data) {
		return fmt.Errorf("bitset: %d trailing bytes after last container", len(data)-off)
	}
	return nil
}

// expandRuns decodes the pairs of a legacy run record into c. Each run
// must lie inside the span and not be inverted, and the runs must ascend
// with a gap between neighbours, so that equal content has one record.
func (c *container) expandRuns(runs []uint16, span int) error {
	b := make([]uint64, ctrWords)
	card := 0
	for i := 0; i < len(runs); i += 2 {
		lo, hi := runs[i], runs[i+1]
		if lo > hi || int(hi) >= span {
			return fmt.Errorf("bitset: run [%d,%d] invalid for span %d", lo, hi, span)
		}
		if i > 0 && int(lo) <= int(runs[i-1])+1 {
			return fmt.Errorf("bitset: runs not disjoint/canonical")
		}
		setWordRange(b, int(lo), int(hi))
		card += int(hi-lo) + 1
	}
	*c = container{kind: bitmapCtr, card: int32(card), b: b}
	c.optimize()
	return nil
}

func readCount(data []byte, off, ci int) (int, int, error) {
	if len(data)-off < 4 {
		return 0, 0, fmt.Errorf("bitset: truncated at container %d header", ci)
	}
	return int(binary.LittleEndian.Uint32(data[off:])), off + 4, nil
}
