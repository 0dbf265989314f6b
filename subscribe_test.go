package colarm

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seattleQuery is the focal query the subscription tests stand on: the
// paper's Seattle region over the salary dataset.
func seattleQuery() Query {
	return Query{
		Range:         map[string][]string{"Location": {"Seattle"}},
		MinSupport:    0.30,
		MinConfidence: 0.50,
	}
}

// TestSubscribeNotices exercises the facade's apply-observer seam: each
// accepted ingest batch produces one notice with the covered version
// interval, Affects gates on the focal region, and cancel stops
// delivery.
func TestSubscribeNotices(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Version(); got != 0 {
		t.Fatalf("fresh engine Version() = %d, want 0", got)
	}

	var notices []ApplyNotice
	cancel := eng.Subscribe(func(n ApplyNotice) { notices = append(notices, n) })

	seattle := map[string]string{
		"Company": "Microsoft", "Title": "Sw Engg", "Location": "Seattle",
		"Gender": "F", "Age": "30-40", "Salary": "90K-120K"}
	boston := map[string]string{
		"Company": "Google", "Title": "QA Engg", "Location": "Boston",
		"Gender": "M", "Age": "20-30", "Salary": "60K-90K"}

	if _, err := eng.Ingest([]map[string]string{seattle}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest([]map[string]string{boston}, []int{3}); err != nil {
		t.Fatal(err)
	}
	if len(notices) != 2 {
		t.Fatalf("got %d notices, want 2", len(notices))
	}
	if n := notices[0]; n.Generation != 0 || n.FromVersion != 0 || n.ToVersion != 1 || n.NumRows() != 1 {
		t.Fatalf("first notice = %+v (rows %d), want (gen 0, 0->1, 1 row)", n, n.NumRows())
	}
	// The second batch inserts one row and deletes one: both count.
	if n := notices[1]; n.FromVersion != 1 || n.ToVersion != 2 || n.NumRows() != 2 {
		t.Fatalf("second notice = %+v (rows %d), want (1->2, 2 rows)", n, n.NumRows())
	}
	if got := eng.Version(); got != 2 {
		t.Fatalf("Version() = %d after two batches, want 2", got)
	}

	// Affectedness: the Seattle insert lies inside the region; the
	// second batch's rows are the Boston insert and deleted record 3
	// (SFO in the paper's table), so it cannot touch any Seattle rule.
	if ok, err := notices[0].Affects(seattleQuery()); err != nil || !ok {
		t.Fatalf("Seattle batch Affects(seattle) = %v, %v; want true", ok, err)
	}
	if ok, err := notices[1].Affects(seattleQuery()); err != nil || ok {
		t.Fatalf("Boston batch Affects(seattle) = %v, %v; want false", ok, err)
	}
	bad := seattleQuery()
	bad.Range["Planet"] = []string{"Mars"}
	if _, err := notices[0].Affects(bad); err == nil {
		t.Fatal("Affects with an unknown attribute did not error")
	}

	cancel()
	if _, err := eng.Ingest([]map[string]string{seattle}, nil); err != nil {
		t.Fatal(err)
	}
	if len(notices) != 2 {
		t.Fatalf("notice delivered after cancel: %d total", len(notices))
	}
}

// TestRuleDiff exercises the incremental diff primitive end to end:
// snapshot form (nil prev), self-diff emptiness, appearance/update
// detection across an affecting ingest, and replay reconstruction.
func TestRuleDiff(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := seattleQuery()

	snap, err := eng.RuleDiff(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rules) == 0 || len(snap.Appeared) != len(snap.Rules) ||
		len(snap.Disappeared) != 0 || len(snap.Updated) != 0 {
		t.Fatalf("snapshot diff: %d rules, %d appeared, %d disappeared, %d updated",
			len(snap.Rules), len(snap.Appeared), len(snap.Disappeared), len(snap.Updated))
	}
	if snap.Generation != 0 || snap.Version != 0 {
		t.Fatalf("snapshot at (gen %d, ver %d), want (0, 0)", snap.Generation, snap.Version)
	}
	if snap.Empty() {
		t.Fatal("snapshot diff with rules reported Empty")
	}

	same, err := eng.RuleDiff(ctx, q, snap.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if !same.Empty() {
		t.Fatalf("self-diff not empty: %d appeared, %d disappeared, %d updated",
			len(same.Appeared), len(same.Disappeared), len(same.Updated))
	}

	// Keys identify rules independent of measures: every current rule's
	// key must be unique, and a measure change alone must not change it.
	keys := map[string]bool{}
	for _, r := range snap.Rules {
		k := RuleKey(r)
		if keys[k] {
			t.Fatalf("duplicate rule key %q", k)
		}
		keys[k] = true
		r.Support /= 2
		if RuleKey(r) != k {
			t.Fatal("RuleKey depends on a measured value")
		}
	}

	// An affecting batch must surface as a non-empty diff whose replay
	// over the previous rules reconstructs the current set exactly.
	if _, err := eng.Ingest([]map[string]string{{
		"Company": "Facebook", "Title": "Sw Engg", "Location": "Seattle",
		"Gender": "F", "Age": "20-30", "Salary": "30K-60K"}}, nil); err != nil {
		t.Fatal(err)
	}
	d, err := eng.RuleDiff(ctx, q, snap.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("diff after an affecting Seattle ingest is empty")
	}
	if d.Version != 1 {
		t.Fatalf("diff Version = %d, want 1", d.Version)
	}
	replayed := map[string]Rule{}
	for _, r := range snap.Rules {
		replayed[RuleKey(r)] = r
	}
	for _, r := range d.Disappeared {
		delete(replayed, RuleKey(r))
	}
	for _, r := range d.Appeared {
		replayed[RuleKey(r)] = r
	}
	for _, r := range d.Updated {
		k := RuleKey(r)
		if _, ok := replayed[k]; !ok {
			t.Fatalf("updated rule %q absent from the replayed set", k)
		}
		replayed[k] = r
	}
	if len(replayed) != len(d.Rules) {
		t.Fatalf("replay has %d rules, current set %d", len(replayed), len(d.Rules))
	}
	for _, r := range d.Rules {
		got, ok := replayed[RuleKey(r)]
		if !ok || !sameMeasures(got, r) {
			t.Fatalf("replayed rule %q diverges from the current set", RuleKey(r))
		}
	}

	bad := q
	bad.MinSupport = 7
	if _, err := eng.RuleDiff(ctx, bad, nil); err == nil {
		t.Fatal("RuleDiff with a bad threshold did not error")
	}
}

// TestSharedMetricsRegistry covers the shared-registry seam the serving
// layer uses: engines opened against one registry expose per-dataset
// metrics through a single exposition and HTTP handler.
func TestSharedMetricsRegistry(t *testing.T) {
	reg := NewMetricsRegistry()
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(ds, Options{PrimarySupport: 0.18, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mine(seattleQuery()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "colarm_queries_total") {
		t.Fatalf("shared exposition missing query counter:\n%s", sb.String())
	}
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "colarm_queries_total") {
		t.Fatalf("handler: status %d", rec.Code)
	}
}

// TestLoadCSV round-trips a dataset through a CSV file on disk and
// mines it, covering the file-loading entry point colarm-serve's -csv
// flag uses.
func TestLoadCSV(t *testing.T) {
	ds, err := Salary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "salary.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRecords() != ds.NumRecords() {
		t.Fatalf("loaded %d records, want %d", loaded.NumRecords(), ds.NumRecords())
	}
	eng, err := Open(loaded, Options{PrimarySupport: 0.18})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Mine(seattleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) == 0 {
		t.Fatal("no rules from the CSV-loaded dataset")
	}
	if _, err := LoadCSV(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("LoadCSV on a missing file did not error")
	}
}
