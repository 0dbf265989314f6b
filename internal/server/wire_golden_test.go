package server

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"colarm"
)

// updateWire rewrites testdata/wire from the running server. The
// goldens pin the bytes of every JSON route and SSE frame type, so they
// are regenerated only when the wire contract is changed on purpose.
var updateWire = flag.Bool("update", false, "rewrite the testdata/wire goldens from this server's replies")

// Wall-clock values are the only bytes of a reply that differ between
// two runs; the scrubbers below replace each with a placeholder that
// still pins its JSON type and format (an integer stays an integer).
// Everything else must repeat exactly.
var (
	reNanos = regexp.MustCompile(`"durationNanos":\d+`)
	reTrace = regexp.MustCompile(`"trace":"(?:[^"\\]|\\.)*"`)
	// A measured span duration is right-aligned, so spaces lead it; the
	// model's pred=… on the same line is deterministic and stays pinned.
	reSpanDur = regexp.MustCompile(` +[0-9][0-9.]*(ns|µs|ms|s)\b`)
	// An evicted frame's position depends on how far the consumer got.
	reEvicted = regexp.MustCompile(`\d+`)
)

func scrubClock(b []byte) []byte {
	b = reNanos.ReplaceAll(b, []byte(`"durationNanos":"<nanos>"`))
	return reTrace.ReplaceAllFunc(b, func(tr []byte) []byte {
		return reSpanDur.ReplaceAll(tr, []byte(" <dur>"))
	})
}

func scrubEvicted(b []byte) []byte {
	return reEvicted.ReplaceAll(b, []byte("N"))
}

// checkWire compares one scrubbed reply with its golden file.
func checkWire(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", file)
	got = append(bytes.TrimRight(got, "\n"), '\n')
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire bytes changed\n got: %s\nwant: %s", file, got, want)
	}
}

func wireServer(t *testing.T, opts colarm.Options, cfg Config) (*Server, http.Handler) {
	t.Helper()
	ds, err := colarm.Salary()
	if err != nil {
		t.Fatal(err)
	}
	opts.PrimarySupport = 0.18
	eng, err := colarm.Open(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register(eng)
	s := New(reg, cfg)
	t.Cleanup(s.Close)
	return s, s.Handler()
}

// do sends one request (a nil body is none, a string a raw body,
// anything else JSON) and returns the reply's bytes.
func do(t *testing.T, h http.Handler, method, path string, body any, status int) []byte {
	t.Helper()
	var w *httptest.ResponseRecorder
	switch b := body.(type) {
	case nil:
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
	case string:
		req := httptest.NewRequest(method, path, strings.NewReader(b))
		req.Header.Set("Content-Type", "text/plain")
		w = httptest.NewRecorder()
		h.ServeHTTP(w, req)
	default:
		w = postJSON(t, h, path, body)
	}
	if w.Code != status {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, w.Code, status, w.Body.String())
	}
	return w.Body.Bytes()
}

// oddSeattleRow dilutes the two 3-of-4 Seattle rules to 3 of 5, taking
// their support from 0.75 below a tracked 0.7.
var oddSeattleRow = map[string]string{
	"Company": "Google", "Title": "Tech Arch", "Location": "Seattle",
	"Gender": "M", "Age": "40-50", "Salary": "120K-150K",
}

var wireIngest = map[string]any{
	"dataset": "salary", "inserts": []map[string]string{seattleRow, bostonRow}, "deletes": []int{0}, "rebuild": "never",
}

// TestWireGolden pins the reply bytes of every JSON route and every SSE
// frame type. The files under testdata/wire were written by the server
// as it stood before the facade types took over the wire tags.
func TestWireGolden(t *testing.T) {
	t.Run("mine and explain", func(t *testing.T) {
		_, h := wireServer(t, colarm.Options{}, Config{})
		checkWire(t, "mine_auto.json", scrubClock(do(t, h, "POST", "/v1/mine", seattleQuery, 200)))
		checkWire(t, "mine_cache_hit.json", scrubClock(do(t, h, "POST", "/v1/mine", seattleQuery, 200)))
		checkWire(t, "mine_forced_plan.json", scrubClock(do(t, h, "POST", "/v1/mine", map[string]any{
			"dataset": "salary", "range": map[string][]string{"Location": {"Seattle"}},
			"minSupport": 0.3, "minConfidence": 0.5, "maxConsequent": 1, "plan": "SS-E-U-V"}, 200)))
		checkWire(t, "mine_ql.json", scrubClock(do(t, h, "POST", "/v1/mine",
			`REPORT LOCALIZED ASSOCIATION RULES FROM salary WHERE RANGE Location = (Boston) `+
				`AND ITEM ATTRIBUTES Age, Salary HAVING minsupport = 50% AND minconfidence = 80% USING PLAN S-VS;`, 200)))
		checkWire(t, "mine_no_rules.json", scrubClock(do(t, h, "POST", "/v1/mine", map[string]any{
			"dataset": "salary", "range": map[string][]string{"Location": {"Seattle"}},
			"itemAttributes": []string{"Age"}, "minSupport": 0.99, "minConfidence": 0.99}, 200)))
		traced := map[string]any{"trace": true}
		for k, v := range seattleQuery {
			traced[k] = v
		}
		checkWire(t, "mine_traced.json", scrubClock(do(t, h, "POST", "/v1/mine", traced, 200)))
		checkWire(t, "explain.json", do(t, h, "POST", "/v1/explain", seattleQuery, 200))
	})

	t.Run("ingest and datasets", func(t *testing.T) {
		_, h := wireServer(t, colarm.Options{}, Config{})
		checkWire(t, "ingest.json", scrubClock(do(t, h, "POST", "/v1/ingest", wireIngest, 200)))
		checkWire(t, "datasets.json", do(t, h, "GET", "/v1/datasets", nil, 200))
		checkWire(t, "dataset_detail.json", scrubClock(do(t, h, "GET", "/v1/datasets/salary", nil, 200)))
	})

	t.Run("explain after ingest", func(t *testing.T) {
		// The base table has no Seattle men: the estimates price the four
		// ingested ones, the focal subset the request resolved.
		_, h := wireServer(t, colarm.Options{}, Config{})
		var rows []map[string]string
		for _, r := range [][]string{
			{"Microsoft", "Sw Engg", "30-40", "90K-120K"},
			{"Facebook", "QA Engg", "20-30", "60K-90K"},
			{"Microsoft", "Engg Mgr", "40-50", "120K-150K"},
			{"Google", "Sw Engg", "30-40", "90K-120K"},
		} {
			rows = append(rows, map[string]string{"Company": r[0], "Title": r[1], "Location": "Seattle", "Gender": "M", "Age": r[2], "Salary": r[3]})
		}
		ingestRows(t, h, rows, "never")
		checkWire(t, "explain_after_ingest.json", do(t, h, "POST", "/v1/explain", map[string]any{
			"dataset": "salary", "range": map[string][]string{"Location": {"Seattle"}, "Gender": {"M"}},
			"minSupport": 0.5, "minConfidence": 0.5}, 200))
	})

	t.Run("subscriptions", func(t *testing.T) {
		s, h := wireServer(t, colarm.Options{}, Config{})
		ts := httptest.NewServer(h)
		defer ts.Close()

		tracked := map[string]any{"track": map[string]any{"measure": "support", "threshold": 0.7}}
		for k, v := range seattleSub {
			tracked[k] = v
		}
		checkWire(t, "subscribe.json", do(t, h, "POST", "/v1/subscriptions", tracked, 201))
		do(t, h, "POST", "/v1/subscriptions", map[string]any{
			"ql": `REPORT LOCALIZED ASSOCIATION RULES FROM salary WHERE RANGE Location = (Boston) HAVING minsupport = 50% AND minconfidence = 80%;`}, 201)
		checkWire(t, "subscriptions.json", do(t, h, "GET", "/v1/subscriptions", nil, 200))
		checkWire(t, "subscription.json", do(t, h, "GET", "/v1/subscriptions/sub-1", nil, 200))

		frames := dialFrames(t, ts.URL, "sub-1")
		defer frames.close()
		checkWire(t, "sse_snapshot.txt", frames.next(t))
		do(t, h, "POST", "/v1/ingest", map[string]any{"dataset": "salary", "inserts": []map[string]string{oddSeattleRow}, "rebuild": "never"}, 200)
		quiesceServer(t, s)
		diff := frames.next(t)
		if !bytes.Contains(diff, []byte(`"crossed":[{`)) {
			t.Fatalf("diff frame carries no crossing: %s", diff)
		}
		checkWire(t, "sse_diff.txt", diff)
		checkWire(t, "longpoll.json", do(t, h, "GET", "/v1/subscriptions/sub-1/events?after=0&wait=1s", nil, 200))
	})

	t.Run("evicted", func(t *testing.T) {
		s, h := wireServer(t, colarm.Options{}, Config{SubscriptionBuffer: 2})
		s.sseDelay = 40 * time.Millisecond
		ts := httptest.NewServer(h)
		defer ts.Close()
		do(t, h, "POST", "/v1/subscriptions", seattleSub, 201)
		frames := dialFrames(t, ts.URL, "sub-1")
		defer frames.close()
		for i := 0; i < 12; i++ {
			ingestRows(t, h, []map[string]string{seattleRow}, "never")
			quiesceServer(t, s)
		}
		var last []byte
		for f := frames.next(t); f != nil; f = frames.next(t) {
			last = f
		}
		checkWire(t, "sse_evicted.txt", scrubEvicted(last))
	})
}

// frameReader yields an SSE stream's frames as the raw bytes between
// blank lines, heartbeat comments dropped.
type frameReader struct {
	resp *http.Response
	buf  []byte
}

func dialFrames(t *testing.T, baseURL, id string) *frameReader {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/subscriptions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE dial: status %d", resp.StatusCode)
	}
	return &frameReader{resp: resp}
}

func (f *frameReader) close() { f.resp.Body.Close() }

// next returns the next frame without its terminating blank line, or
// nil at the end of the stream.
func (f *frameReader) next(t *testing.T) []byte {
	t.Helper()
	for {
		if i := bytes.Index(f.buf, []byte("\n\n")); i >= 0 {
			frame := append([]byte(nil), f.buf[:i]...)
			f.buf = f.buf[i+2:]
			if bytes.HasPrefix(frame, []byte(":")) {
				continue
			}
			return frame
		}
		chunk := make([]byte, 32<<10)
		n, err := f.resp.Body.Read(chunk)
		f.buf = append(f.buf, chunk[:n]...)
		if err != nil {
			if n == 0 {
				return nil
			}
			continue
		}
	}
}

// TestWireScrubbersKeepTypes guards the goldens' own tooling: a scrubber
// must not hide a value that changed type or format.
func TestWireScrubbersKeepTypes(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`{"durationNanos":1234}`, `{"durationNanos":"<nanos>"}`},
		{`{"durationNanos":12.5}`, `{"durationNanos":"<nanos>".5}`},
		{`{"durationNanos":"1µs"}`, `{"durationNanos":"1µs"}`},
		{`{"trace":"S-VS  12µs\n└─ VERIFY      1.5ms  in=3 out=4  pred=2µs"}`, `{"trace":"S-VS <dur>\n└─ VERIFY <dur>  in=3 out=4  pred=2µs"}`},
	} {
		if got := string(scrubClock([]byte(tc.in))); got != tc.want {
			t.Errorf("scrubClock(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
	if got := string(scrubEvicted([]byte("id: 13\nevent: evicted"))); got != "id: N\nevent: evicted" {
		t.Errorf("scrubEvicted = %q", got)
	}
}
