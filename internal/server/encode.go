package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"colarm"
	"colarm/internal/standing"
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

// appendEvent appends to b exactly the bytes json.Marshal(ev) returns,
// without reflection: every SSE frame and long-poll reply is standing
// events. It writes standing.Event's JSON tags in field order, leaving
// out an empty omitempty member as json.Marshal does, and encodes the
// rule lists through appendRules; the rare Crossed list goes through
// json.Marshal. The fuzz and reflection tests in encode_test.go hold it
// to json.Marshal, so a field added to, renamed in or moved within
// standing.Event fails them until it is added here too.
func appendEvent(b []byte, ev *standing.Event) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"type":`...)
	b = appendLabel(b, ev.Type)
	b = append(b, `,"dataset":`...)
	b = appendLabel(b, ev.Dataset)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, ev.Generation, 10)
	b = append(b, `,"fromVersion":`...)
	b = strconv.AppendUint(b, ev.FromVersion, 10)
	b = append(b, `,"toVersion":`...)
	b = strconv.AppendUint(b, ev.ToVersion, 10)
	var err error
	for k, rules := range [...][]colarm.Rule{ev.Rules, ev.Appeared, ev.Disappeared, ev.Updated} {
		if len(rules) == 0 {
			continue
		}
		b = append(b, ruleMembers[k]...)
		if b, err = appendRules(b, rules); err != nil {
			return b, err
		}
	}
	if len(ev.Crossed) > 0 {
		crossed, err := json.Marshal(ev.Crossed)
		if err != nil {
			return b, err
		}
		b = append(b, `,"crossed":`...)
		b = append(b, crossed...)
	}
	if ev.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendLabel(b, ev.Reason)
	}
	return append(b, '}'), nil
}

// appendEvents appends a long-poll reply, {"subscription","events"},
// as json.Marshal encodes it, each event through appendEvent.
func appendEvents(b []byte, id string, evs []standing.Event) ([]byte, error) {
	b = append(b, `{"subscription":`...)
	b = appendLabel(b, id)
	b = append(b, `,"events":[`...)
	for i := range evs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendEvent(b, &evs[i]); err != nil {
			return b, err
		}
	}
	return append(b, "]}"...), nil
}

// ruleMembers open standing.Event's rule-list members, in field order.
var ruleMembers = [...]string{`,"rules":`, `,"appeared":`, `,"disappeared":`, `,"updated":`}

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
