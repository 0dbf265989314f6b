// Package itemset defines the multidimensional itemset space of COLARM
// (paper Section 2.1): items are (attribute, value) pairs, itemsets are
// sorted collections of items with at most one item per attribute, and
// every itemset occupies an axis-aligned bounding box in the
// n-dimensional space whose axes are the attribute value dictionaries.
package itemset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"colarm/internal/relation"
)

// Item identifies a single (attribute, value) pair. Ids are dense: the
// items of attribute 0 come first, then attribute 1, and so on, each in
// dictionary (axis) order. This layout lets the Space recover the
// attribute and value of an item with two array lookups.
type Item int32

// Space maps items to their (attribute, value) coordinates for one
// dataset. It is immutable after construction.
type Space struct {
	attrs  []*relation.Attribute
	base   []int32  // base[a] = first item id of attribute a
	attrOf []int32  // attrOf[it] = the attribute of item it
	labels []string // labels[it] = "Attr=value", one per item
}

// NewSpace builds the item space of a dataset.
func NewSpace(d *relation.Dataset) *Space {
	s := &Space{attrs: d.Attrs, base: make([]int32, len(d.Attrs))}
	for i, a := range d.Attrs {
		s.base[i] = int32(len(s.labels))
		for _, v := range a.Values {
			s.attrOf = append(s.attrOf, int32(i))
			s.labels = append(s.labels, a.Name+"="+v)
		}
	}
	return s
}

// NumItems returns the total number of items across all attributes.
func (s *Space) NumItems() int { return len(s.labels) }

// NumAttrs returns the number of attributes (dimensions).
func (s *Space) NumAttrs() int { return len(s.attrs) }

// Cardinality returns the number of values of attribute a.
func (s *Space) Cardinality(a int) int { return s.attrs[a].Cardinality() }

// ItemOf returns the item for (attribute a, value index v).
func (s *Space) ItemOf(a, v int) Item { return Item(s.base[a] + int32(v)) }

// AttrOf returns the attribute index of it.
func (s *Space) AttrOf(it Item) int { return int(s.attrOf[it]) }

// ValueOf returns the value index of it along its attribute's axis.
func (s *Space) ValueOf(it Item) int {
	return int(int32(it) - s.base[s.AttrOf(it)])
}

// Label renders the item as "Attr=value". The space builds its labels
// once, so every rule naming an item shares the one string.
func (s *Space) Label(it Item) string { return s.labels[it] }

// Labels renders each item of set as "Attr=value".
func (s *Space) Labels(set Set) []string {
	out := make([]string, len(set))
	for i, it := range set {
		out[i] = s.labels[it]
	}
	return out
}

// ParseItem resolves "Attr=value" to an Item.
func (s *Space) ParseItem(label string) (Item, error) {
	eq := strings.IndexByte(label, '=')
	if eq < 0 {
		return 0, fmt.Errorf("itemset: item %q is not of the form Attr=value", label)
	}
	name, val := label[:eq], label[eq+1:]
	for a, attr := range s.attrs {
		if attr.Name == name {
			v := attr.ValueIndex(val)
			if v < 0 {
				return 0, fmt.Errorf("itemset: attribute %q has no value %q", name, val)
			}
			return s.ItemOf(a, v), nil
		}
	}
	return 0, fmt.Errorf("itemset: unknown attribute %q", name)
}

// Set is an itemset: items sorted ascending, no duplicates. By
// construction from relational records, a Set holds at most one item per
// attribute; the algebra does not depend on that property, but the MIP
// geometry does.
type Set []Item

// NewSet sorts and deduplicates the given items into a canonical Set.
func NewSet(items ...Item) Set {
	s := append(Set(nil), items...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// Contains reports whether it is a member of s.
func (s Set) Contains(it Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= it })
	return i < len(s) && s[i] == it
}

// Equal reports item-for-item equality.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every item of s is in t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	i := 0
	for _, it := range s {
		for i < len(t) && t[i] < it {
			i++
		}
		if i >= len(t) || t[i] != it {
			return false
		}
	}
	return true
}

// Union returns the sorted union of s and t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	out := make(Set, 0, len(s))
	j := 0
	for _, it := range s {
		for j < len(t) && t[j] < it {
			j++
		}
		if j < len(t) && t[j] == it {
			continue
		}
		out = append(out, it)
	}
	return out
}

// Clone returns an independent copy.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// Hash64 is FNV-1a over the set's item words: the hash of the IT-tree's
// exact-lookup table and of VERIFY's support memo. Both resolve a hit
// with Equal, since distinct sets may collide.
func (s Set) Hash64() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// Key returns a comparable map key for the set. Itemsets are short (a
// handful of items), so a delimited string is cheap and collision-free.
func (s Set) Key() string {
	return string(s.AppendKey(make([]byte, 0, len(s)*5)))
}

// AppendKey appends the bytes of Key to buf.
func (s Set) AppendKey(buf []byte) []byte {
	for i, it := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(it), 10)
	}
	return buf
}

// Format renders the set with item labels, e.g. "(Age=20-30, Salary=90K-120K)".
func (s Set) Format(sp *Space) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, it := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sp.Label(it))
	}
	b.WriteByte(')')
	return b.String()
}

// RestrictedTo returns the subset of s whose items belong to attributes
// flagged true in attrOK (the ITEM-ATTRIBUTES filter of the paper's
// ELIMINATE operator). The second result reports whether all items
// survived.
func (s Set) RestrictedTo(sp *Space, attrOK []bool) (Set, bool) {
	for _, it := range s {
		if !attrOK[sp.AttrOf(it)] {
			out := make(Set, 0, len(s))
			for _, jt := range s {
				if attrOK[sp.AttrOf(jt)] {
					out = append(out, jt)
				}
			}
			return out, false
		}
	}
	return s, true
}
