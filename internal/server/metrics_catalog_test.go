package server

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"colarm"
)

// metricFamily is one /metrics family as the catalog describes it.
type metricFamily struct {
	Type   string
	Labels []string // sorted; histogram's le is the format's, not listed
	Help   string
}

var (
	reSample    = regexp.MustCompile(`^(colarm_\w+)(?:\{(.*)\})? \S+$`)
	reHistPart  = regexp.MustCompile(`_(bucket|sum|count)$`)
	reLabelName = regexp.MustCompile(`(\w+)="`)
	reCatalog   = regexp.MustCompile("^\\| `(colarm_\\w+)` \\| (\\w+) \\| (.*?) \\| (.*) \\|$")
)

// scrapedFamilies parses a Prometheus text exposition into its families.
func scrapedFamilies(t *testing.T, body string) map[string]metricFamily {
	t.Helper()
	fams := map[string]metricFamily{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			f := fams[name]
			f.Help = help
			fams[name] = f
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			f := fams[name]
			f.Type = typ
			fams[name] = f
		case line != "":
			m := reSample.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparseable sample line %q", line)
			}
			name := m[1]
			if _, ok := fams[name]; !ok {
				name = reHistPart.ReplaceAllString(name, "")
			}
			if _, ok := fams[name]; !ok {
				t.Fatalf("sample %q precedes its # HELP/# TYPE", line)
			}
			if labels[name] == nil {
				labels[name] = map[string]bool{}
			}
			for _, l := range reLabelName.FindAllStringSubmatch(m[2], -1) {
				if l[1] != "le" {
					labels[name][l[1]] = true
				}
			}
		}
	}
	for name, f := range fams {
		for l := range labels[name] {
			f.Labels = append(f.Labels, l)
		}
		sort.Strings(f.Labels)
		fams[name] = f
	}
	return fams
}

// catalogFamilies reads README.md's "Metrics catalog" table.
func catalogFamilies(t *testing.T) map[string]metricFamily {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Metrics catalog\n")
	if !ok {
		t.Fatal(`README.md has no "### Metrics catalog" section`)
	}
	fams := map[string]metricFamily{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "#") {
			break // next section
		}
		m := reCatalog.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if _, dup := fams[m[1]]; dup {
			t.Errorf("README catalog lists %s twice", m[1])
		}
		f := metricFamily{Type: m[2], Help: m[4]}
		for _, l := range strings.Split(m[3], ",") {
			if l = strings.Trim(strings.TrimSpace(l), "`"); l != "" && l != "—" {
				f.Labels = append(f.Labels, l)
			}
		}
		sort.Strings(f.Labels)
		fams[m[1]] = f
	}
	return fams
}

// TestMetricsCatalog holds README's "Metrics catalog" table equal to what
// /metrics serves, in both directions: a family the server registers
// must have a row, and a row must describe a family the server serves,
// with its type, labels and help string. The server has one
// subscription and one applied batch so that every lazily labeled series
// (subscription events by type) has appeared.
func TestMetricsCatalog(t *testing.T) {
	metrics := colarm.NewMetricsRegistry()
	_, h := wireServer(t, colarm.Options{Metrics: metrics}, Config{EngineMetrics: metrics})
	do(t, h, "POST", "/v1/subscriptions", seattleSub, 201)
	do(t, h, "POST", "/v1/ingest", wireIngest, 200)

	served := scrapedFamilies(t, string(do(t, h, "GET", "/metrics", nil, 200)))
	documented := catalogFamilies(t)
	for name, got := range served {
		want, ok := documented[name]
		if !ok {
			t.Errorf("%s is served by /metrics but has no row in README's metrics catalog", name)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: README row and /metrics disagree\n served: %+v\n README: %+v", name, got, want)
		}
	}
	for name := range documented {
		if _, ok := served[name]; !ok {
			t.Errorf("README's metrics catalog lists %s, which /metrics does not serve", name)
		}
	}
}
