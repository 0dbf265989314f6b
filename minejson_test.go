package colarm

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"colarm/internal/datagen"
)

// MineJSON encodes the executor's id-space rules straight to JSON. These
// tests hold its bytes to json.Marshal of the rules MineContext returns
// for the same query, and the Result beside them to MineContext's.

// checkMineJSON runs q through MineJSON, appending to a prefix, and
// through MineContext, and holds the two to each other: the appended
// bytes are json.Marshal of MineContext's rules ([] for none), and the
// Result is MineContext's without rules and with its own duration. It
// returns how many rules the query mined.
func checkMineJSON(t *testing.T, eng *Engine, q Query) int {
	t.Helper()
	ctx := context.Background()
	const prefix = `{"rules":`
	got, res, err := eng.MineJSON(ctx, q, []byte(prefix))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.MineContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rules := ref.Rules
	if rules == nil {
		rules = []Rule{}
	}
	want, err := json.Marshal(rules)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte(prefix), want...)) {
		t.Fatalf("%+v: MineJSON\n got %s\nwant %s%s", q, got, prefix, want)
	}
	if res.Rules != nil {
		t.Errorf("%+v: MineJSON's Result carries %d rules", q, len(res.Rules))
	}
	if (res.Trace != nil) != q.Trace || (ref.Trace != nil) != q.Trace {
		t.Errorf("%+v: traced %v, MineJSON's trace %v, MineContext's %v", q, q.Trace, res.Trace != nil, ref.Trace != nil)
	}
	res.Stats.DurationNanos = ref.Stats.DurationNanos
	if !reflect.DeepEqual(res.Stats, ref.Stats) || !reflect.DeepEqual(res.Estimates, ref.Estimates) {
		t.Errorf("%+v: MineJSON's stats and estimates\n%+v %+v\nMineContext's\n%+v %+v", q, res.Stats, res.Estimates, ref.Stats, ref.Estimates)
	}
	return len(ref.Rules)
}

// TestMineJSONMatchesMarshal runs, on salary, chess and mushroom, a
// whole-domain query, a region query, an item-attribute query and one
// that cannot mine a rule (a single item attribute: a rule needs two
// items, one an attribute), each under Auto and the six plans and once
// traced.
func TestMineJSONMatchesMarshal(t *testing.T) {
	mushroom := openGenerated(t, datagen.Scaled(datagen.MushroomConfig(1), 0.25), 0.30)
	for _, c := range []struct {
		name    string
		eng     *Engine
		queries func(attrs []string, vals []string) []Query
	}{
		{"salary", openSalary(t, Options{}), func(attrs, vals []string) []Query {
			return []Query{
				{MinSupport: 0.2, MinConfidence: 0.3, MaxConsequent: 2},
				{Range: map[string][]string{"Location": {"Seattle"}, "Gender": {"F"}}, ItemAttributes: []string{"Age", "Salary"}, MinSupport: 0.70, MinConfidence: 0.95},
				{ItemAttributes: []string{"Title", "Age", "Salary"}, MinSupport: 0.3, MinConfidence: 0.5},
				{Range: map[string][]string{"Location": {"Seattle"}}, ItemAttributes: []string{"Age"}, MinSupport: 0.3, MinConfidence: 0.5},
			}
		}},
		{"chess", openGenerated(t, datagen.ChessConfig(1), 0.70), func(attrs, vals []string) []Query {
			return []Query{
				{MinSupport: 0.80, MinConfidence: 0.9, MaxConsequent: 1},
				{Range: map[string][]string{attrs[0]: vals[:1]}, ItemAttributes: attrs[1:9], MinSupport: 0.85, MinConfidence: 0.9},
				{ItemAttributes: attrs[:12], MinSupport: 0.88, MinConfidence: 0.9, MaxConsequent: 2},
				{ItemAttributes: attrs[:1], MinSupport: 0.80, MinConfidence: 0.5},
			}
		}},
		{"mushroom", mushroom, func(attrs, vals []string) []Query {
			return []Query{
				{MinSupport: 0.45, MinConfidence: 0.9, MaxConsequent: 1},
				{Range: map[string][]string{attrs[0]: vals[:1]}, MinSupport: 0.5, MinConfidence: 0.8},
				{ItemAttributes: attrs[:8], MinSupport: 0.4, MinConfidence: 0.8, MaxConsequent: 2},
				{ItemAttributes: attrs[2:3], MinSupport: 0.3, MinConfidence: 0.5},
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			attrs := c.eng.Dataset().Attributes()
			vals, err := c.eng.Dataset().Values(attrs[0])
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range c.queries(attrs, vals) {
				mined := 0
				for _, p := range append([]Plan{Auto}, sixPlans...) {
					q.Plan = p
					mined += checkMineJSON(t, c.eng, q)
				}
				q.Plan, q.Trace = Auto, true
				checkMineJSON(t, c.eng, q)
				if last := qi == 3; last != (mined == 0) {
					t.Errorf("query %d mines %d rules over the seven plans", qi, mined)
				}
			}
		})
	}
}

// TestMineJSONCoversRule reads colarm.Rule's JSON member names by
// reflection and requires each rule object MineJSON writes to have
// exactly those, in field order: a field added to, renamed in or moved
// within Rule fails here until the id-space encoder writes it.
func TestMineJSONCoversRule(t *testing.T) {
	var want []string
	rt := reflect.TypeOf(Rule{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		switch name {
		case "-":
			continue
		case "":
			name = rt.Field(i).Name
		}
		want = append(want, name)
	}
	eng := openSalary(t, Options{})
	b, _, err := eng.MineJSON(context.Background(), Query{MinSupport: 0.2, MinConfidence: 0.3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var objs []json.RawMessage
	if err := json.Unmarshal(b, &objs); err != nil {
		t.Fatal(err)
	}
	if len(objs) == 0 {
		t.Fatal("query mines no rules; the test checks nothing")
	}
	for _, obj := range objs {
		dec := json.NewDecoder(bytes.NewReader(obj))
		var got []string
		if _, err := dec.Token(); err != nil { // {
			t.Fatal(err)
		}
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, key.(string))
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MineJSON writes a rule's members %q; colarm.Rule has %q", got, want)
		}
	}
}

// hostileValues are what a CSV cell may carry into a label: every
// character class encoding/json escapes, and bytes it replaces.
var hostileValues = []string{
	`say "hi"`,
	`back\slash`,
	`<script>&amp;</script>`,
	"line\u2028sep\u2029",
	"ctl\x00\x01\x1f\x7f\t",
	"bad\xff\xfeutf8\xc0",
	"é≠😀",
}

// FuzzMineJSON holds MineJSON to json.Marshal of MineContext's rules
// over a CSV dataset whose attribute names and values are fuzzed: A
// cycles through three values and B copies A, so A=x ⇒ B=x holds in
// either half of K and every label reaches a reply under every plan.
func FuzzMineJSON(f *testing.F) {
	for i, v := range hostileValues {
		f.Add("A"+v, v, hostileValues[(i+1)%len(hostileValues)], "plain", uint8(i))
	}
	f.Add("A", "1", "2", "3", uint8(0))
	f.Fuzz(func(t *testing.T, attr, v1, v2, v3 string, shape uint8) {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		rows := [][]string{{"K", attr, "B" + attr}}
		for i := 0; i < 24; i++ {
			v := [...]string{v1, v2, v3}[i%3]
			rows = append(rows, []string{string(rune('0' + i%2)), v, v})
		}
		if err := w.WriteAll(rows); err != nil {
			return
		}
		ds, err := ReadCSV("fuzz", &buf)
		if err != nil {
			return // names or values the dataset refuses
		}
		eng, err := Open(ds, Options{PrimarySupport: 0.05})
		if err != nil {
			return
		}
		q := Query{MinSupport: 0.1, MinConfidence: 0.5, Plan: Plan(int(shape) % (len(sixPlans) + 1))}
		if shape&8 != 0 {
			q.Range = map[string][]string{"K": {"0"}}
		}
		if checkMineJSON(t, eng, q) == 0 {
			t.Fatal("no rule mined: no label reached a reply")
		}
	})
}
