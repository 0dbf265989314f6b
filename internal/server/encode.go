package server

import (
	"encoding/json"
	"strconv"

	"colarm"
	"colarm/internal/standing"
	"colarm/internal/wire"
)

// appendRules appends to b exactly the bytes json.Marshal(rules) returns,
// without reflection: rule lists are most of a standing event's bytes.
// The format is wire.AppendRules's; the fuzz and reflection tests in
// encode_test.go hold it to json.Marshal, so a field added to, renamed
// in or moved within colarm.Rule fails them until wire writes it too.
func appendRules(b []byte, rules []colarm.Rule) ([]byte, error) {
	if rules == nil {
		return append(b, "null"...), nil
	}
	return wire.AppendRules(b, ruleList(rules))
}

// ruleList is the wire.Rules of facade rules, whose labels are strings.
type ruleList []colarm.Rule

func (rs ruleList) Len() int { return len(rs) }

func (rs ruleList) AppendLabels(b []byte, i int, consequent bool) []byte {
	if consequent {
		return appendLabels(b, rs[i].Consequent)
	}
	return appendLabels(b, rs[i].Antecedent)
}

func (rs ruleList) Measures(i int) wire.Measures {
	r := &rs[i]
	return wire.Measures{
		Support: r.Support, Confidence: r.Confidence, Lift: r.Lift, Cosine: r.Cosine, Kulczynski: r.Kulczynski,
		SupportCount: r.SupportCount, AntecedentCount: r.AntecedentCount, SubsetSize: r.SubsetSize,
	}
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
