// Package wire is the JSON encoding of a mined rule, written once for
// the two places that encode rules without reflection: the engine's
// id-space answer of a /v1/mine reply (colarm.Engine.MineJSON) and the
// server's colarm.Rule lists of standing events. The member names, the
// float format and the repeated-float memo live here; an encoder
// supplies only its rules' labels and measures, so the two produce the
// bytes json.Marshal gives a []colarm.Rule from different label
// sources and the format is not copied.
package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"colarm/internal/itemset"
)

// Rules is a list of rules as AppendRules reads it.
type Rules interface {
	Len() int
	// AppendLabels appends the labels of rule i's antecedent, or of its
	// consequent, as json.Marshal encodes a []string.
	AppendLabels(b []byte, i int, consequent bool) []byte
	// Measures returns rule i's members after its labels.
	Measures(i int) Measures
}

// Measures are a rule's numeric members in colarm.Rule's field order.
type Measures struct {
	Support, Confidence, Lift, Cosine, Kulczynski float64
	SupportCount, AntecedentCount, SubsetSize     int
}

// AppendRules appends rs to b as a JSON array of colarm.Rule objects,
// [] when rs is empty: colarm.Rule's tags in field order, floats in
// encoding/json's float64 form. JSON has no NaN or infinity; a measure
// holding one is the error json.Marshal returns.
func AppendRules[R Rules](b []byte, rs R) ([]byte, error) {
	// Sorted by confidence and then support, consecutive rules mostly
	// repeat their measures (about two in three on mine_auto), so each
	// float member remembers where its last value's bytes are in b and
	// copies them when the bits repeat: formatting is most of the cost.
	var last [len(floatMembers)]struct {
		bits   uint64
		lo, hi int // b[lo:hi] encodes bits; hi == 0 before the first rule
	}
	b = append(b, '[')
	for i, n := 0, rs.Len(); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"antecedent":`...)
		b = rs.AppendLabels(b, i, false)
		b = append(b, `,"consequent":`...)
		b = rs.AppendLabels(b, i, true)
		m := rs.Measures(i)
		var err error
		for k, v := range [...]float64{m.Support, m.Confidence, m.Lift, m.Cosine, m.Kulczynski} {
			b = append(b, floatMembers[k]...)
			l, bits := &last[k], math.Float64bits(v)
			if l.hi > 0 && l.bits == bits {
				b = append(b, b[l.lo:l.hi]...)
				continue
			}
			lo := len(b)
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
			l.bits, l.lo, l.hi = bits, lo, len(b)
		}
		b = append(b, `,"supportCount":`...)
		b = strconv.AppendInt(b, int64(m.SupportCount), 10)
		b = append(b, `,"antecedentCount":`...)
		b = strconv.AppendInt(b, int64(m.AntecedentCount), 10)
		b = append(b, `,"subsetSize":`...)
		b = strconv.AppendInt(b, int64(m.SubsetSize), 10)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// floatMembers open colarm.Rule's float64 members, in field order.
var floatMembers = [...]string{`,"support":`, `,"confidence":`, `,"lift":`, `,"cosine":`, `,"kulczynski":`}

// RuleBytes bounds what AppendRules writes for one rule apart from its
// labels: the member names and punctuation, the widest a float64 or int
// formats to, empty label arrays and the comma before the next rule. A
// label adds its quoted bytes and a comma; the array adds its brackets,
// ArrayBytes.
const RuleBytes = len(`{"antecedent":[],"consequent":[]`) +
	len(`,"support":,"confidence":,"lift":,"cosine":,"kulczynski":`) + 5*maxFloatLen +
	len(`,"supportCount":,"antecedentCount":,"subsetSize":},`) + 3*maxIntLen

// ArrayBytes is what a rules array adds around its rules: "[]".
const ArrayBytes = len("[]")

// maxFloatLen and maxIntLen are the most bytes appendFloat and
// strconv.AppendInt write: "-0.0000012345678901234567" and
// "-9223372036854775808".
const maxFloatLen, maxIntLen = 25, 20

// appendFloat appends f as encoding/json formats a float64: 'f' form,
// or 'e' form with the exponent's leading zero dropped when |f| < 1e-6
// or |f| >= 1e21.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Labels holds every item label of one itemset.Space JSON-quoted, in
// one arena: the label source of an answer encoded from item ids.
type Labels struct {
	arena []byte
	end   []int32 // item it's quoted label is arena[end[it-1]:end[it]]
}

// NewLabels quotes each label of sp with json.Marshal, so the escaping
// is the reflected encoding's by construction.
func NewLabels(sp *itemset.Space) *Labels {
	l := &Labels{end: make([]int32, sp.NumItems())}
	for it := range l.end {
		q, _ := json.Marshal(sp.Label(itemset.Item(it))) // a string always encodes
		l.arena = append(l.arena, q...)
		l.end[it] = int32(len(l.arena))
	}
	return l
}

// quoted returns item it's label as a JSON string.
func (l *Labels) quoted(it itemset.Item) []byte {
	lo := int32(0)
	if it > 0 {
		lo = l.end[it-1]
	}
	return l.arena[lo:l.end[it]]
}

// Append appends the labels of set as json.Marshal encodes a []string.
func (l *Labels) Append(b []byte, set itemset.Set) []byte {
	b = append(b, '[')
	for i, it := range set {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.quoted(it)...)
	}
	return append(b, ']')
}

// Bound bounds what Append writes for set beyond its brackets: each
// label's quoted bytes and a comma.
func (l *Labels) Bound(set itemset.Set) int {
	n := 0
	for _, it := range set {
		n += len(l.quoted(it)) + 1
	}
	return n
}
