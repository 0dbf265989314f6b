package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"colarm"
)

// appendRules appends to b exactly the bytes json.Marshal(rules) returns,
// without reflection: the rules array is all but a few hundred bytes of
// a mined reply. It writes colarm.Rule's JSON tags in field order; the
// fuzz and reflection tests in encode_test.go hold it to json.Marshal,
// so a field added to, renamed in or moved within colarm.Rule fails them
// until it is added here too.
func appendRules(b []byte, rules []colarm.Rule) ([]byte, error) {
	if rules == nil {
		return append(b, "null"...), nil
	}
	// Sorted by confidence and then support, consecutive rules mostly
	// repeat their measures (about two in three on mine_auto), so each
	// float member remembers where its last value's bytes are in b and
	// copies them when the bits repeat: formatting is most of the cost.
	var last [len(floatMembers)]struct {
		bits   uint64
		lo, hi int // b[lo:hi] encodes bits; hi == 0 before the first rule
	}
	b = append(b, '[')
	for i := range rules {
		if i > 0 {
			b = append(b, ',')
		}
		r := &rules[i]
		b = append(b, `{"antecedent":`...)
		b = appendLabels(b, r.Antecedent)
		b = append(b, `,"consequent":`...)
		b = appendLabels(b, r.Consequent)
		var err error
		for k, v := range [...]float64{r.Support, r.Confidence, r.Lift, r.Cosine, r.Kulczynski} {
			b = append(b, floatMembers[k]...)
			m, bits := &last[k], math.Float64bits(v)
			if m.hi > 0 && m.bits == bits {
				b = append(b, b[m.lo:m.hi]...)
				continue
			}
			lo := len(b)
			if b, err = appendFloat(b, v); err != nil {
				return b, err
			}
			m.bits, m.lo, m.hi = bits, lo, len(b)
		}
		b = append(b, `,"supportCount":`...)
		b = strconv.AppendInt(b, int64(r.SupportCount), 10)
		b = append(b, `,"antecedentCount":`...)
		b = strconv.AppendInt(b, int64(r.AntecedentCount), 10)
		b = append(b, `,"subsetSize":`...)
		b = strconv.AppendInt(b, int64(r.SubsetSize), 10)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// floatMembers open colarm.Rule's float64 members, in field order.
var floatMembers = [...]string{`,"support":`, `,"confidence":`, `,"lift":`, `,"cosine":`, `,"kulczynski":`}

// appendLabels appends a []string as json.Marshal encodes it.
func appendLabels(b []byte, labels []string) []byte {
	if labels == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendLabel(b, l)
	}
	return append(b, ']')
}

// appendLabel appends s as a JSON string. A label of printable ASCII
// that encoding/json leaves alone — everything from ' ' to '~' but '"',
// '\\' and the HTML-escaped '<', '>' and '&' — is copied between quotes;
// any other goes through json.Marshal, which escapes and replaces
// exactly as the reflected encoding would.
func appendLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ' || c > '~', c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64: 'f' form,
// or 'e' form with the exponent's leading zero dropped when |f| < 1e-6
// or |f| >= 1e21. JSON has no NaN or infinity; they are the error
// json.Marshal returns.
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
