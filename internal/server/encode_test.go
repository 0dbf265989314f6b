package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colarm"
	"colarm/internal/datagen"
	"colarm/internal/standing"
	"colarm/internal/wire"
)

// orEmpty is s, or the empty slice when s is nil: the wire says [] for a
// list with nothing in it, so the reference bodies marshal one.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// quarterChessEngine opens the quarter-scale chess of the facade's
// Explain goldens (8 507 CFIs at primary 0.70): replies of hundreds of
// rules in milliseconds.
func quarterChessEngine(t testing.TB) *colarm.Engine {
	t.Helper()
	rel, err := datagen.Generate(datagen.Scaled(datagen.ChessConfig(1), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	ds, err := colarm.ReadCSV("chess", &csv)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: 0.70})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// hostileName and hostileLabels are what a dataset may legally put into
// a reply's strings: the cut marker itself, every character class
// encoding/json escapes, and bytes it replaces.
const hostileName = "\"rules\":[],<&>\u2028"

var hostileLabels = []string{
	`say "hi"`,
	`back\slash`,
	`<script>&amp;</script>`,
	"line\u2028sep\u2029",
	"ctl\x00\x01\x1f\x7f\n\t",
	"bad\xff\xfeutf8\xc0",
	`"rules":[]`,
	"é≠😀",
}

// hostileEngine serves a dataset named hostileName whose attribute A
// cycles through hostileLabels and whose B copies A, so A=x ⇒ B=x holds
// for every label inside either half of K.
func hostileEngine(t testing.TB) *colarm.Engine {
	t.Helper()
	b := colarm.NewDataset(hostileName, "K", "A<&>", `B"\`)
	for i := 0; i < 64; i++ {
		v := hostileLabels[i%len(hostileLabels)]
		if err := b.Add(strconv.Itoa(i%2), v, v); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := colarm.Open(b.Build(), colarm.Options{PrimarySupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// identityStats is what a hit reports: the execution's identity under
// zeroed operator counters.
func identityStats(st colarm.Stats) colarm.Stats {
	return colarm.Stats{Plan: st.Plan, SubsetSize: st.SubsetSize, MinSupportCount: st.MinSupportCount}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMineBodiesMatchReference holds the spliced miss reply and the
// stored hit body byte for byte to json.Marshal of the wire schema.
func TestMineBodiesMatchReference(t *testing.T) {
	reg := NewRegistry()
	chess := quarterChessEngine(t)
	for _, eng := range []*colarm.Engine{salaryEngine(t, nil), chess, hostileEngine(t)} {
		reg.Register(eng)
	}
	s := New(reg, Config{})
	t.Cleanup(s.Close)
	h := s.Handler()

	chessAttrs := chess.Dataset().Attributes()
	chessVals, err := chess.Dataset().Values(chessAttrs[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		query map[string]any
	}{
		{"salary", seattleQuery},
		{"salary forced plan", map[string]any{"dataset": "salary", "range": map[string][]string{"Location": {"Seattle"}},
			"minSupport": 0.3, "minConfidence": 0.5, "plan": "SS-E-U-V"}},
		{"salary no rules", map[string]any{"dataset": "salary", "range": map[string][]string{"Location": {"Seattle"}},
			"itemAttributes": []string{"Age"}, "minSupport": 0.99, "minConfidence": 0.99}},
		{"chess", map[string]any{"dataset": "chess", "range": map[string][]string{chessAttrs[0]: chessVals[:1]},
			"itemAttributes": chessAttrs[1:9], "minSupport": 0.85, "minConfidence": 0.9, "maxConsequent": 1}},
		{"chess whole domain", map[string]any{"dataset": "chess", "itemAttributes": chessAttrs[:6],
			"minSupport": 0.9, "minConfidence": 0.5, "plan": "S-VS"}},
		{"hostile", map[string]any{"dataset": hostileName, "range": map[string][]string{"K": {"0"}},
			"minSupport": 0.2, "minConfidence": 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			missW := postJSON(t, h, "/v1/mine", tc.query)
			hitW := postJSON(t, h, "/v1/mine", tc.query)
			miss, hit := decodeMine(t, missW), decodeMine(t, hitW)
			if miss.Cached || !hit.Cached {
				t.Fatalf("cached = %v then %v, want false then true", miss.Cached, hit.Cached)
			}
			for _, w := range []*httptest.ResponseRecorder{missW, hitW} {
				if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
					t.Errorf("Content-Length = %q, body is %d bytes", got, w.Body.Len())
				}
			}

			// The reference: the facade's answer through the wire schema.
			eng, q, err := s.resolve(requestOf(t, tc.query))
			if err != nil {
				t.Fatal(err)
			}
			gen := eng.Generation()
			res, err := eng.Mine(q)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "salary no rules" && len(res.Rules) == 0 {
				t.Fatal("query mines no rules; the case checks nothing")
			}
			ref := mineResponse{
				Dataset:    eng.Dataset().Name(),
				Generation: gen,
				Version:    eng.Version(),
				Rules:      orEmpty(res.Rules),
				Stats:      res.Stats,
				Estimates:  res.Estimates,
			}
			// Only the clock differs between two executions of one query.
			ref.Stats.DurationNanos = miss.Stats.DurationNanos
			if want := mustMarshal(t, ref); !bytes.Equal(missW.Body.Bytes(), want) {
				t.Errorf("miss body differs from json.Marshal of the reference:\n got %s\nwant %s", missW.Body.Bytes(), want)
			}
			ref.Cached, ref.Stats = true, identityStats(ref.Stats)
			if want := mustMarshal(t, ref); !bytes.Equal(hitW.Body.Bytes(), want) {
				t.Errorf("hit body differs from json.Marshal of the reference:\n got %s\nwant %s", hitW.Body.Bytes(), want)
			}

			// Decoded, hit and miss differ in cached, the operator
			// counters and durationNanos, and in nothing else.
			miss.Cached, miss.Stats = true, identityStats(miss.Stats)
			if !reflect.DeepEqual(miss, hit) {
				t.Errorf("hit and miss differ beyond cached and counters:\nmiss %+v\n hit %+v", miss, hit)
			}
		})
	}
}

// requestOf round-trips a test's query map into the handler's request
// type.
func requestOf(t testing.TB, query map[string]any) *queryBody {
	t.Helper()
	var req mineRequest
	if err := json.Unmarshal(mustMarshal(t, query), &req); err != nil {
		t.Fatal(err)
	}
	return &req.queryBody
}

// encodeMiss is a miss's encoding of a reply whose rules are given as
// facade rules: their array into buf, as MineJSON appends it, then the
// envelope around it.
func encodeMiss(buf *bytes.Buffer, resp mineResponse, rules []colarm.Rule, fill bool) (head, tail, hit []byte, err error) {
	b, err := appendRules(buf.AvailableBuffer(), orEmpty(rules))
	if err != nil {
		return nil, nil, nil, err
	}
	buf.Write(b)
	return encodeMine(buf.Bytes(), resp, fill)
}

// TestEncodeMineTable drives encodeMine with results no engine would
// produce: every float json formats specially, hostile labels in every
// string position, nil and empty slices.
func TestEncodeMineTable(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, 1.0 / 3, 0.1 + 0.2, 1e-6, 1e-7, 123456789.125,
		1e20, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-9, math.MaxInt64}
	var rules []colarm.Rule
	for i, f := range floats {
		l := hostileLabels[i%len(hostileLabels)]
		rules = append(rules, colarm.Rule{
			Antecedent: []string{l, "A=" + l}, Consequent: []string{l},
			Support: f, Confidence: -f, Lift: f / 3, Cosine: f / 7, Kulczynski: f,
			SupportCount: i, AntecedentCount: -i, SubsetSize: math.MaxInt32 * i,
		})
	}
	rules = append(rules, colarm.Rule{}, colarm.Rule{Antecedent: []string{}})
	stats := colarm.Stats{Plan: colarm.SSEUV, SubsetSize: 7, MinSupportCount: 3, SupportChecks: 99, RulesEmitted: len(rules), DurationNanos: 12345}
	ests := []colarm.PlanEstimate{{Plan: colarm.ARM, Cost: 1e21, Candidates: 1e-7, Qualified: 0.1}}

	for _, tc := range []struct {
		name  string
		rules []colarm.Rule
		ests  []colarm.PlanEstimate
		trace string
	}{
		{"hostile", rules, ests, ""},
		{"one rule", rules[:1], nil, ""},
		{"no rules", nil, ests, ""},
		{"trace", rules[:3], nil, "MINE\n  \"rules\":[] <&>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := mineResponse{Dataset: hostileName, Generation: 3, Version: math.MaxUint64,
				Rules: orEmpty(tc.rules), Stats: stats, Estimates: tc.ests, Trace: tc.trace}
			resp := ref
			resp.Rules = nil
			var buf bytes.Buffer
			head, tail, hit, err := encodeMiss(&buf, resp, tc.rules, true)
			if err != nil {
				t.Fatal(err)
			}
			miss := bytes.Join([][]byte{head, buf.Bytes(), tail}, nil)
			if want := mustMarshal(t, ref); !bytes.Equal(miss, want) {
				t.Errorf("miss:\n got %s\nwant %s", miss, want)
			}
			ref.Cached, ref.Stats = true, identityStats(ref.Stats)
			if want := mustMarshal(t, ref); !bytes.Equal(hit, want) {
				t.Errorf("hit:\n got %s\nwant %s", hit, want)
			}
			if cap(hit) != len(hit) {
				t.Errorf("stored body wastes %d bytes of capacity", cap(hit)-len(hit))
			}

			buf.Reset()
			if _, _, hit, err := encodeMiss(&buf, resp, tc.rules, false); err != nil || hit != nil {
				t.Errorf("without fill: hit = %d bytes, err = %v", len(hit), err)
			}
		})
	}

	// What JSON cannot say is an error, not a body.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		var buf bytes.Buffer
		if _, _, _, err := encodeMiss(&buf, mineResponse{}, []colarm.Rule{{Lift: bad}}, true); err == nil {
			t.Errorf("lift %v encoded without error", bad)
		}
		buf.Reset()
		if _, _, _, err := encodeMiss(&buf, mineResponse{Estimates: []colarm.PlanEstimate{{Cost: bad}}}, nil, true); err == nil {
			t.Errorf("estimate cost %v encoded without error", bad)
		}
	}
}

// FuzzAppendRules holds appendRules to json.Marshal byte for byte over
// arbitrary label bytes and float64 bit patterns, nil and empty label
// lists included: both encode the same bytes, or both fail.
func FuzzAppendRules(f *testing.F) {
	for i, l := range hostileLabels {
		f.Add(l, "A=a", math.Float64bits(1.0/3), math.Float64bits(1e-7), math.Float64bits(1e21), int64(i), uint8(i))
	}
	// Each byte the copy path must refuse, alone in an otherwise plain label.
	for _, c := range []string{`"`, `\`, "<", ">", "&", "\x7f", "\x1f", "\x80", "\u2028"} {
		f.Add("R"+c+"D=1", "A=a", uint64(0), uint64(0), uint64(0), int64(0), uint8(0))
	}
	f.Add("", "x", math.Float64bits(math.NaN()), uint64(0), math.Float64bits(math.Inf(-1)), int64(-1), uint8(3))
	f.Add("plain", "c01=c011", math.Float64bits(0.875), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(123456789.125), int64(math.MaxInt64), uint8(0))
	f.Add("zeros", "=", uint64(0), math.Float64bits(math.Copysign(0, -1)), uint64(0), int64(0), uint8(2))
	f.Fuzz(func(t *testing.T, a, c string, x, y, z uint64, n int64, shape uint8) {
		fx, fy, fz := math.Float64frombits(x), math.Float64frombits(y), math.Float64frombits(z)
		rule := colarm.Rule{
			Antecedent: []string{a, c}, Consequent: []string{c + a},
			Support: fx, Confidence: fy, Lift: fz, Cosine: fx * fy, Kulczynski: fz / 3,
			SupportCount: int(n), AntecedentCount: int(n >> 7), SubsetSize: -int(n),
		}
		switch shape % 4 {
		case 1:
			rule.Antecedent = nil
		case 2:
			rule.Consequent = []string{}
		case 3:
			rule.Antecedent, rule.Consequent = nil, nil
		}
		// twin repeats rule's measures in other members, so consecutive
		// rules share values, and +0 follows -0 when the input says so.
		twin := rule
		twin.Support, twin.Confidence, twin.Lift = fy, fx, fz
		for _, rules := range [][]colarm.Rule{nil, {}, {rule}, {rule, {Antecedent: []string{a}}, rule}, {rule, rule, twin, twin, rule}} {
			got, gotErr := appendRules([]byte("prefix"), rules)
			want, wantErr := json.Marshal(rules)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("appendRules err = %v, json.Marshal err = %v", gotErr, wantErr)
			}
			if gotErr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
				t.Fatalf("appendRules:\n got %s\nwant prefix%s", got, want)
			}
		}
	})
}

// TestAppendRulesCoversRule fills every field of colarm.Rule, found by
// reflection, with a value of its own, and requires appendRules to
// encode it as json.Marshal does. A field added to colarm.Rule, a tag
// renamed or a field moved fails here until appendRules follows.
func TestAppendRulesCoversRule(t *testing.T) {
	var rule colarm.Rule
	v := reflect.ValueOf(&rule).Elem()
	for i := 0; i < v.NumField(); i++ {
		field, name := v.Field(i), v.Type().Field(i).Name
		switch field.Kind() {
		case reflect.Slice:
			if field.Type().Elem().Kind() != reflect.String {
				t.Fatalf("field %s is a %s, which appendRules does not encode", name, field.Type())
			}
			field.Set(reflect.ValueOf([]string{name + "=1", name + "=2"}))
		case reflect.Float64:
			field.SetFloat(float64(i) + 0.25)
		case reflect.Int:
			field.SetInt(int64(1000 + i))
		default:
			t.Fatalf("field %s is a %s, which appendRules does not encode", name, field.Type())
		}
	}
	got, err := appendRules(nil, []colarm.Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	if want := mustMarshal(t, []colarm.Rule{rule}); !bytes.Equal(got, want) {
		t.Errorf("appendRules does not cover colarm.Rule:\n got %s\nwant %s", got, want)
	}
}

// FuzzAppendEvent holds appendEvent, and the long-poll reply
// appendEvents builds from it, to json.Marshal byte for byte over every
// event type and arbitrary strings, counters and float64 bit patterns,
// each rule list and Crossed and Reason present or absent: both encode
// the same bytes, or both fail with the same error.
func FuzzAppendEvent(f *testing.F) {
	types := []string{standing.EventSnapshot, standing.EventDiff, standing.EventEpoch, standing.EventEvicted}
	for i, l := range hostileLabels {
		f.Add(uint8(i), l, "A=a", uint64(i), math.Float64bits(1.0/3), math.Float64bits(1e-7), uint8(1<<(i%6)))
	}
	f.Add(uint8(1), "", "x", uint64(math.MaxUint64), math.Float64bits(math.NaN()), uint64(0), uint8(0x3f))
	f.Add(uint8(2), "c01=c011", "<&>", uint64(7), math.Float64bits(0.875), math.Float64bits(math.Inf(-1)), uint8(0x10))
	f.Add(uint8(3), "plain", "=", uint64(0), math.Float64bits(math.Inf(1)), math.Float64bits(math.Copysign(0, -1)), uint8(0x20))
	f.Add(uint8(4), "odd type", "é", uint64(1), uint64(0), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, kind uint8, a, c string, n, x, y uint64, shape uint8) {
		fx, fy := math.Float64frombits(x), math.Float64frombits(y)
		typ := a // past the four types, an arbitrary string
		if int(kind) < len(types) {
			typ = types[kind]
		}
		rule := colarm.Rule{
			Antecedent: []string{a, c}, Consequent: []string{c + a},
			Support: fx, Confidence: fy, Lift: fx / 3, Cosine: fy * 2, Kulczynski: fx,
			SupportCount: int(n), AntecedentCount: int(n >> 3), SubsetSize: -int(n),
		}
		ev := standing.Event{Seq: n, Type: typ, Dataset: c, Generation: n >> 1, FromVersion: n >> 2, ToVersion: n >> 3}
		// Bits 0-3 fill the rule lists (one of them with an empty, not
		// nil, list), bit 4 Crossed, bit 5 Reason.
		lists := []*[]colarm.Rule{&ev.Rules, &ev.Appeared, &ev.Disappeared, &ev.Updated}
		for k, l := range lists {
			if shape&(1<<k) != 0 {
				*l = []colarm.Rule{rule, {Consequent: []string{a}}}
			} else if int(kind)%len(lists) == k {
				*l = []colarm.Rule{}
			}
		}
		if shape&(1<<4) != 0 {
			ev.Crossed = []standing.Crossing{{Rule: rule, Measure: a, Threshold: fy, Direction: c, Previous: fx, Current: fy}}
		}
		if shape&(1<<5) != 0 {
			ev.Reason = a + c
		}
		got, gotErr := appendEvent([]byte("prefix"), &ev)
		want, wantErr := json.Marshal(ev)
		if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("appendEvent err = %v, json.Marshal err = %v", gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendEvent:\n got %s\nwant prefix%s", got, want)
		}
		// The long-poll reply around it, with no events and with two.
		for _, evs := range [][]standing.Event{nil, {ev, {Seq: 1, Type: typ}}} {
			got, gotErr := appendEvents(nil, a, evs)
			want, wantErr := json.Marshal(struct {
				Subscription string           `json:"subscription"`
				Events       []standing.Event `json:"events"`
			}{a, orEmpty(evs)})
			if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("appendEvents err = %v, json.Marshal err = %v", gotErr, wantErr)
			}
			if gotErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("appendEvents:\n got %s\nwant %s", got, want)
			}
		}
	})
}

// TestAppendEventCoversEvent fills every field of standing.Event, found
// by reflection, with a value of its own, and requires appendEvent to
// encode it as json.Marshal does. A field added to standing.Event, a
// tag renamed or a field moved fails here until appendEvent follows.
func TestAppendEventCoversEvent(t *testing.T) {
	var ev standing.Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		field, name := v.Field(i), v.Type().Field(i).Name
		switch field.Interface().(type) {
		case uint64:
			field.SetUint(uint64(1000 + i))
		case string:
			field.SetString(name)
		case []colarm.Rule:
			field.Set(reflect.ValueOf([]colarm.Rule{{Antecedent: []string{name + "=1"}, Consequent: []string{name + "=2"}, Support: float64(i) + 0.25}}))
		case []standing.Crossing:
			field.Set(reflect.ValueOf([]standing.Crossing{{Rule: colarm.Rule{Antecedent: []string{name}}, Measure: "lift", Threshold: 1.5, Direction: "above", Previous: 1.25, Current: 2}}))
		default:
			t.Fatalf("field %s is a %s, which appendEvent does not encode", name, field.Type())
		}
	}
	got, err := appendEvent(nil, &ev)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustMarshal(t, ev); !bytes.Equal(got, want) {
		t.Errorf("appendEvent does not cover standing.Event:\n got %s\nwant %s", got, want)
	}
}

// TestWriteJSONCompactAndEncodeFailure pins the one reply policy:
// compact bytes equal to json.Marshal under a Content-Length, and a 500
// envelope — not a truncated 200 — for a value that cannot be encoded.
func TestWriteJSONCompactAndEncodeFailure(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	v := map[string]any{"a": []int{1, 2}, "b": "< >"}
	w := httptest.NewRecorder()
	s.writeJSON(w, http.StatusCreated, v)
	if want := mustMarshal(t, v); w.Code != http.StatusCreated || !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("status %d body %q, want 201 %q", w.Code, w.Body.Bytes(), want)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", got, w.Body.Len())
	}

	w = httptest.NewRecorder()
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "lift": math.NaN()})
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("failure body is not JSON: %q", w.Body.Bytes())
	}
	if w.Code != http.StatusInternalServerError || e.Error.Code != CodeInternal {
		t.Errorf("status %d code %q, want 500 %q", w.Code, e.Error.Code, CodeInternal)
	}
	if got := w.Header().Get("Content-Length"); got != strconv.Itoa(w.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", got, w.Body.Len())
	}
}

// TestHitsUnderChurn hammers one key with requests while other
// goroutines expire it (TTL), evict it (a one-entry shard) and so force
// refills: every reply is either the hit reference byte for byte or a
// miss equal to it up to cached, counters and the clock. Run with -race.
func TestHitsUnderChurn(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: cacheShardCount, CacheTTL: 2 * time.Millisecond})
	h := s.Handler()

	var ref []byte
	for ref == nil { // a fill may expire before the next request
		w := postJSON(t, h, "/v1/mine", seattleQuery)
		if decodeMine(t, w).Cached {
			ref = w.Body.Bytes()
		}
	}
	var refHit mineResponse
	if err := json.Unmarshal(ref, &refHit); err != nil {
		t.Fatal(err)
	}

	eng, q, err := s.resolve(requestOf(t, seattleQuery))
	if err != nil {
		t.Fatal(err)
	}
	gen := eng.Generation()
	key := cacheKey("salary", gen, eng.Version(), q)
	rivals := shardKeys(s.cache, s.cache.shard(key), 4) // they share the hot key's one-entry shard

	stop := make(chan struct{})
	var churn, clients sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.cache.put(rivals[i%len(rivals)], fakeBody(1+i%512))
			s.cache.get(rivals[(i+1)%len(rivals)])
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var hits, misses atomic.Int64
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 400; i++ {
				w := postJSON(t, h, "/v1/mine", seattleQuery)
				if w.Code != http.StatusOK {
					t.Errorf("status = %d: %s", w.Code, w.Body.Bytes())
					return
				}
				var resp mineResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("reply does not parse: %v: %s", err, w.Body.Bytes())
					return
				}
				if resp.Cached {
					hits.Add(1)
					if !bytes.Equal(w.Body.Bytes(), ref) {
						t.Errorf("hit differs from the reference:\n got %s\nwant %s", w.Body.Bytes(), ref)
					}
					continue
				}
				misses.Add(1)
				resp.Cached, resp.Stats = true, identityStats(resp.Stats)
				if !reflect.DeepEqual(resp, refHit) {
					t.Errorf("miss differs from the reference beyond cached and counters: %+v", resp)
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	churn.Wait()
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Errorf("churn exercised one path only: %d hits, %d misses", hits.Load(), misses.Load())
	}
}

// hitFixture warms one real key and returns a request-maker for it plus
// a way to swap the stored body for a synthetic one of n rules.
func hitFixture(t testing.TB) (h http.Handler, request func() *http.Request, store func(rules int) int) {
	s, _ := newTestServer(t, Config{})
	body := mustMarshal(t, seattleQuery)
	eng, q, err := s.resolve(requestOf(t, seattleQuery))
	if err != nil {
		t.Fatal(err)
	}
	gen := eng.Generation()
	key := cacheKey("salary", gen, eng.Version(), q)
	request = func() *http.Request {
		return httptest.NewRequest("POST", "/v1/mine", bytes.NewReader(body))
	}
	store = func(rules int) int {
		var buf bytes.Buffer
		_, _, hit, err := encodeMiss(&buf, mineResponse{Dataset: "salary", Generation: gen}, syntheticRules(rules), true)
		if err != nil {
			t.Fatal(err)
		}
		s.cache.put(key, hit)
		return len(hit)
	}
	return s.Handler(), request, store
}

// syntheticRules builds n rules shaped like mine_hot's: three or four
// short labels and five fractional measures each, ~200 bytes encoded.
func syntheticRules(n int) []colarm.Rule {
	rules := make([]colarm.Rule, n)
	for i := range rules {
		f := 1 / float64(i+3)
		rules[i] = colarm.Rule{
			Antecedent: []string{fmt.Sprintf("c%02d=c%02d%d", i%36, i%36, i%3), fmt.Sprintf("c%02d=c%02d%d", (i+7)%36, (i+7)%36, i%2)},
			Consequent: []string{fmt.Sprintf("c%02d=c%02d0", (i+13)%36, (i+13)%36)},
			Support:    f, Confidence: 1 - f, Lift: 1 + f, Cosine: f * f, Kulczynski: f / 2,
			SupportCount: 700 + i, AntecedentCount: 750 + i, SubsetSize: 799,
		}
	}
	return rules
}

// TestMissEncodeGrowsOnce follows a miss's buffer on replies of ~50 and
// ~2 000 rules. MineJSON grows an empty buffer once, to its bound, and
// never again while it encodes: into an empty buffer it costs exactly
// one allocation more than into an ample one. The envelope around the
// rules then costs as many allocations for either reply.
func TestMissEncodeGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects at random")
	}
	eng := quarterChessEngine(t)
	ctx := context.Background()
	// The fewest allocations of many calls: a collection empties the
	// engine's scratch pool and encoding/json's, and a call meeting an
	// empty one allocates afresh.
	fewest := func(f func()) float64 {
		n := math.Inf(1)
		for i := 0; i < 50; i++ {
			n = math.Min(n, testing.AllocsPerRun(1, f))
		}
		return n
	}
	var envelope []float64
	for _, tc := range []struct {
		q        colarm.Query
		min, max int
	}{
		{colarm.Query{MinSupport: 0.92, MinConfidence: 0.9, MaxConsequent: 1, Plan: colarm.SSEUV}, 30, 100},
		{colarm.Query{MinSupport: 0.80, MinConfidence: 0.9, MaxConsequent: 1, Plan: colarm.SSEUV}, 1500, 4000},
	} {
		want, res, err := eng.MineJSON(ctx, tc.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Stats.RulesEmitted; n < tc.min || n > tc.max {
			t.Fatalf("minsupport %v mines %d rules, want %d–%d", tc.q.MinSupport, n, tc.min, tc.max)
		}
		ample := make([]byte, 0, 2*len(want))
		fromEmpty := fewest(func() {
			if _, _, err := eng.MineJSON(ctx, tc.q, nil); err != nil {
				t.Fatal(err)
			}
		})
		fromAmple := fewest(func() {
			if _, _, err := eng.MineJSON(ctx, tc.q, ample[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if fromEmpty != fromAmple+1 {
			t.Errorf("%d rules: MineJSON costs %.0f allocations into an empty buffer, %.0f into an ample one; want one more",
				res.Stats.RulesEmitted, fromEmpty, fromAmple)
		}
		resp := mineResponse{Dataset: "chess", Generation: 1, Stats: res.Stats, Estimates: res.Estimates}
		envelope = append(envelope, fewest(func() {
			if _, _, _, err := encodeMine(want, resp, true); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if envelope[0] != envelope[1] {
		t.Errorf("the envelope of a miss of ~50 rules costs %.0f allocations, of ~2 000 rules %.0f", envelope[0], envelope[1])
	}
}

// rulesBound is the bound MineJSON grows its buffer to, for rules given
// as facade rules: wire.RuleBytes a rule, each label quoted with a
// comma, the array's brackets. It is exact about labels unless one
// needs escaping (MineJSON's quoted lengths are exact always).
func rulesBound(rules []colarm.Rule) int {
	n := wire.ArrayBytes + len(rules)*wire.RuleBytes
	for i := range rules {
		for _, l := range rules[i].Antecedent {
			n += len(l) + len(`"",`)
		}
		for _, l := range rules[i].Consequent {
			n += len(l) + len(`"",`)
		}
	}
	return n
}

// TestRulesBound holds wire.RuleBytes, through rulesBound, to what
// appendRules writes for rules whose labels need no escaping, at the
// widest floats and ints.
func TestRulesBound(t *testing.T) {
	wide := []float64{-0.0000012345678901234567, -1.2345678901234567e-300, -123456789012345678901, math.MaxFloat64, 1.0 / 3}
	var rules []colarm.Rule
	for i, f := range wide {
		rules = append(rules, colarm.Rule{
			Antecedent: []string{"A=" + strconv.Itoa(i), "B=b"}, Consequent: []string{"C=c"},
			Support: f, Confidence: f, Lift: f, Cosine: f, Kulczynski: f,
			SupportCount: math.MinInt64, AntecedentCount: math.MaxInt64, SubsetSize: math.MinInt64,
		})
	}
	rules = append(rules, colarm.Rule{}, colarm.Rule{Antecedent: []string{}})
	for n := 0; n <= len(rules); n++ {
		b, err := appendRules(nil, orEmpty(rules[:n]))
		if err != nil {
			t.Fatal(err)
		}
		if bound := rulesBound(rules[:n]); len(b) > bound {
			t.Errorf("%d rules encode to %d bytes, bound %d", n, len(b), bound)
		}
	}
}

// TestHitAllocsIndependentOfSize is the point of storing bytes: a hit
// allocates for the request, never for the reply, so 16 times the
// rules cost not one allocation more.
func TestHitAllocsIndependentOfSize(t *testing.T) {
	h, request, store := hitFixture(t)
	// The fewest allocations any one request makes: net/http and fmt draw
	// on sync.Pools, which a collection empties and the race detector
	// drops from at random, so single requests are counted and the
	// undisturbed one kept.
	allocs := func(rules int) (float64, int) {
		size := store(rules)
		fewest := math.Inf(1)
		for i := 0; i < 400; i++ {
			fewest = math.Min(fewest, testing.AllocsPerRun(1, func() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, request())
				if w.Code != http.StatusOK || w.Body.Len() != size {
					t.Fatalf("status %d, %d bytes, want 200, %d", w.Code, w.Body.Len(), size)
				}
			}))
		}
		return fewest, size
	}
	small, smallSize := allocs(50)
	large, largeSize := allocs(800)
	if largeSize < 10*smallSize {
		t.Fatalf("bodies of %d and %d bytes do not span the sizes the test is about", smallSize, largeSize)
	}
	if small != large {
		t.Errorf("a hit on %d bytes costs %.0f allocations, on %d bytes %.0f", smallSize, small, largeSize, large)
	}
}

// BenchmarkMineHit is the handler's whole hit path — read, parse,
// canonicalise, look up, write — on a reply the size of mine_hot's mean.
func BenchmarkMineHit(b *testing.B) {
	h, request, store := hitFixture(b)
	b.SetBytes(int64(store(330)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, request())
		if w.Code != http.StatusOK {
			b.Fatal(w.Code)
		}
	}
}

// sink keeps a benchmark's result alive.
var sink []byte

// BenchmarkMineMissEncode is what a cacheable miss pays to encode its
// reply: one pass over 2 000 rules (a mine_auto-sized reply) into the
// pooled buffer, as MineJSON makes it, both envelopes, and the stored
// hit body.
func BenchmarkMineMissEncode(b *testing.B) {
	rules := syntheticRules(2000)
	resp := mineResponse{Dataset: "chess", Generation: 1, Stats: colarm.Stats{Plan: colarm.ARM, SubsetSize: 799}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := bufPool.Get().(*bytes.Buffer)
		head, tail, hit, err := encodeMiss(buf, resp, rules, true)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(head) + buf.Len() + len(tail)))
		sink = hit
		putBuffer(buf)
	}
}
