package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// paperQuery is the paper's running example over the salary table.
const paperQuery = `REPORT LOCALIZED ASSOCIATION RULES FROM salary
WHERE RANGE Location = (Seattle), Gender = (F)
AND ITEM ATTRIBUTES Age, Salary
HAVING minsupport = 70% AND minconfidence = 95%;`

// planMillis matches the wall-clock time that ends the plan line.
var planMillis = regexp.MustCompile(`(?m)^(plan .*\| )[0-9.]+ms$`)

// TestExplainGolden pins -explain on the paper's query: the plan line,
// the six estimates, the unit costs they were priced with and the rules.
// Everything but the plan line's milliseconds is the same on every
// machine, so a diff means the optimizer's scoring or its unit costs
// changed.
func TestExplainGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "salary", "", 0, paperQuery, opts{explain: true, limit: 25}, 1); err != nil {
		t.Fatal(err)
	}
	got := planMillis.ReplaceAllString(out.String(), "${1}<ms>")
	want, err := os.ReadFile(filepath.Join("testdata", "explain.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/explain.golden:\n%s", got)
	}
}
