package main

import (
	"path/filepath"
	"strings"
	"testing"

	"colarm/internal/server"
)

// TestDuplicateDatasetRefused: a dataset name given twice at startup —
// two builtins, or a builtin and a snapshot of a later generation —
// stops colarm-serve with an error before it listens, instead of one
// engine silently replacing the other. The address is one no listener
// accepts, so a run that got past registration fails on it rather than
// serving.
func TestDuplicateDatasetRefused(t *testing.T) {
	snapshot := "salary=" + filepath.Join("..", "..", "internal", "mip", "testdata", "golden_v6.snapshot")
	for _, tc := range []struct {
		name      string
		datasets  string
		snapshots []string
	}{
		{"builtin twice", "salary,salary", nil},
		{"builtin and snapshot", "salary", []string{snapshot}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run("127.0.0.1:-1", tc.datasets, tc.snapshots, nil, 0.1, 1, server.Config{})
			if err == nil || !strings.Contains(err.Error(), `dataset "salary" given twice`) {
				t.Fatalf("run: %v, want the duplicate name refused", err)
			}
		})
	}
}
