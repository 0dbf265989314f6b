package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReproducerGoldens pins the two deterministic artifacts of the
// reduced profile — the Simpson anecdote and Figure 13's CFI counts — to
// the bytes the command printed before its retired benchmark modes were
// removed. [setup] lines carry wall-clock times and are stripped.
func TestReproducerGoldens(t *testing.T) {
	cases := []struct {
		golden string
		fig    int
		table  string
		runs   int
	}{
		{"table_simpson.golden", 0, "simpson", 3},
		{"fig13_runs1.golden", 13, "", 1},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, c.fig, c.table, false, c.runs, 1); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := stripSetup(out.String()); got != string(want) {
				t.Errorf("output differs from testdata/%s:\n%s", c.golden, got)
			}
		})
	}
}

func stripSetup(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.HasPrefix(line, "[setup]") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func TestRunRejectsUnknownSelection(t *testing.T) {
	for _, c := range []struct {
		fig   int
		table string
		runs  int
	}{{7, "", 1}, {0, "simspon", 1}, {13, "", 0}} {
		if err := run(&bytes.Buffer{}, c.fig, c.table, false, c.runs, 1); err == nil {
			t.Errorf("run(fig=%d, table=%q, runs=%d) accepted", c.fig, c.table, c.runs)
		}
	}
}
