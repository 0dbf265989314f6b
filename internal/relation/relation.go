// Package relation implements COLARM's relational data model: a dataset of
// m records over n nominal attributes. Quantitative attributes are
// discretized into disjoint intervals before mining (see discretize.go),
// after which every cell of the relation is a nominal value drawn from a
// per-attribute dictionary.
//
// Internally each record stores, for every attribute, the index of its
// value in that attribute's dictionary. Value indices are what the R-tree
// treats as coordinates, so the dictionary order of an attribute defines
// its axis in the multidimensional itemset space of the paper (Section
// 2.1).
package relation

import "fmt"

// Attribute describes one column of the relation: its name and the ordered
// dictionary of nominal values it can take.
type Attribute struct {
	Name   string
	Values []string // dictionary; index in this slice is the coordinate

	index map[string]int
}

// Cardinality returns the number of distinct values of the attribute.
func (a *Attribute) Cardinality() int { return len(a.Values) }

// ValueIndex returns the coordinate of value v along this attribute's
// axis, or -1 if v is not in the dictionary.
func (a *Attribute) ValueIndex(v string) int {
	if a.index == nil {
		return -1
	}
	if i, ok := a.index[v]; ok {
		return i
	}
	return -1
}

func (a *Attribute) buildIndex() {
	a.index = make(map[string]int, len(a.Values))
	for i, v := range a.Values {
		a.index[v] = i
	}
}

// Dataset is an immutable relational dataset. Records are stored
// row-major: record r's value for attribute a is rows[r*n+a], an index
// into Attrs[a].Values.
type Dataset struct {
	Name  string
	Attrs []*Attribute

	rows []int32
	m    int // number of records
}

// Builder accumulates records and value dictionaries to construct a
// Dataset. Values are interned in first-seen order per attribute.
type Builder struct {
	name  string
	attrs []*Attribute
	rows  []int32
	m     int
}

// NewBuilder starts a dataset with the given attribute names.
func NewBuilder(name string, attrNames ...string) *Builder {
	b := &Builder{name: name}
	for _, an := range attrNames {
		a := &Attribute{Name: an}
		a.buildIndex()
		b.attrs = append(b.attrs, a)
	}
	return b
}

// AddRecord appends one record given as attribute value strings, in the
// attribute order passed to NewBuilder. New values extend the attribute's
// dictionary.
func (b *Builder) AddRecord(values ...string) error {
	if len(values) != len(b.attrs) {
		return fmt.Errorf("relation: record has %d values, dataset has %d attributes", len(values), len(b.attrs))
	}
	for i, v := range values {
		a := b.attrs[i]
		idx, ok := a.index[v]
		if !ok {
			idx = len(a.Values)
			a.Values = append(a.Values, v)
			a.index[v] = idx
		}
		b.rows = append(b.rows, int32(idx))
	}
	b.m++
	return nil
}

// AddRecordIdx appends one record given directly as value indices. Indices
// must already exist in the dictionaries (use AddValue to pre-register).
func (b *Builder) AddRecordIdx(indices ...int) error {
	if len(indices) != len(b.attrs) {
		return fmt.Errorf("relation: record has %d values, dataset has %d attributes", len(indices), len(b.attrs))
	}
	for i, idx := range indices {
		if idx < 0 || idx >= len(b.attrs[i].Values) {
			return fmt.Errorf("relation: value index %d out of range for attribute %q (cardinality %d)",
				idx, b.attrs[i].Name, len(b.attrs[i].Values))
		}
		b.rows = append(b.rows, int32(idx))
	}
	b.m++
	return nil
}

// AddValue pre-registers a dictionary value for attribute ai and returns
// its index, interning it if already present.
func (b *Builder) AddValue(ai int, v string) int {
	a := b.attrs[ai]
	if idx, ok := a.index[v]; ok {
		return idx
	}
	idx := len(a.Values)
	a.Values = append(a.Values, v)
	a.index[v] = idx
	return idx
}

// Build freezes the builder into a Dataset.
func (b *Builder) Build() *Dataset {
	return &Dataset{Name: b.name, Attrs: b.attrs, rows: b.rows, m: b.m}
}

// NumRecords returns m, the number of records.
func (d *Dataset) NumRecords() int { return d.m }

// NumAttrs returns n, the number of attributes.
func (d *Dataset) NumAttrs() int { return len(d.Attrs) }

// Value returns the value index of record r for attribute a.
func (d *Dataset) Value(r, a int) int {
	return int(d.rows[r*len(d.Attrs)+a])
}

// ValueString returns the dictionary string of record r for attribute a.
func (d *Dataset) ValueString(r, a int) string {
	return d.Attrs[a].Values[d.Value(r, a)]
}

// Record returns record r's value indices as a fresh slice.
func (d *Dataset) Record(r int) []int {
	n := len(d.Attrs)
	out := make([]int, n)
	for a := 0; a < n; a++ {
		out[a] = int(d.rows[r*n+a])
	}
	return out
}

// AttrIndex returns the position of the attribute named name, or -1.
func (d *Dataset) AttrIndex(name string) int {
	for i, a := range d.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Validate performs internal consistency checks and returns the first
// problem found, if any. It is used by loaders and tests.
func (d *Dataset) Validate() error {
	n := len(d.Attrs)
	if n == 0 {
		return fmt.Errorf("relation: dataset %q has no attributes", d.Name)
	}
	if len(d.rows) != d.m*n {
		return fmt.Errorf("relation: dataset %q row storage length %d != m*n = %d", d.Name, len(d.rows), d.m*n)
	}
	names := make(map[string]bool, n)
	for ai, a := range d.Attrs {
		if names[a.Name] {
			return fmt.Errorf("relation: duplicate attribute name %q", a.Name)
		}
		names[a.Name] = true
		if a.Cardinality() == 0 && d.m > 0 {
			return fmt.Errorf("relation: attribute %q has empty dictionary but dataset has records", a.Name)
		}
		card := int32(a.Cardinality())
		for r := 0; r < d.m; r++ {
			if v := d.rows[r*n+ai]; v < 0 || v >= card {
				return fmt.Errorf("relation: record %d attribute %q value index %d out of range [0,%d)", r, a.Name, v, card)
			}
		}
	}
	return nil
}
