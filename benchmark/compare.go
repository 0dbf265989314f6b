package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is BENCHMARK.json, the benchmark's contract with the driver.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readSpec loads BENCHMARK.json from the working directory or, when
// the program runs from its own directory, the one above.
func readSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// medians reduces a file's records to one value per (workload,
// metric): the median over the file's runs of that workload.
func medians(recs []record) map[[2]string]float64 {
	vals := map[[2]string][]float64{}
	for _, rec := range recs {
		for name, m := range rec.Metrics {
			k := [2]string{rec.Workload, name}
			vals[k] = append(vals[k], m.Value)
		}
	}
	out := make(map[[2]string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// worseBy is how much worse b is than a, as a share of a, given which
// direction is better; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per (workload, metric) present in both result
// files, the two medians, how much worse the second is, and the
// end-to-end metric's bound. It reports false when any end-to-end
// metric of the second file is worse than the first by more than its
// bound.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	sp, err := readSpec()
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ma, mb := medians(a), medians(b)
	specOf := map[string]specMetric{}
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		specOf[m.Name] = m
	}
	keys := make([][2]string, 0, len(ma))
	for k := range ma {
		if _, ok := mb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if ei, ej := endToEnd[keys[i][1]], endToEnd[keys[j][1]]; ei != ej {
			return ei
		}
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	ok := true
	fmt.Fprintf(w, "%-14s %-32s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse-by", "bound")
	for _, k := range keys {
		m := specOf[k[1]]
		gap := worseBy(ma[k], mb[k], m.Better)
		verdict, bound := "", "-"
		if endToEnd[k[1]] {
			bound = fmt.Sprintf("%.2f", m.Bound)
			if gap > m.Bound {
				verdict, ok = "  EXCEEDED", false
			}
		}
		fmt.Fprintf(w, "%-14s %-32s %14.4f %14.4f %+8.1f%% %7s%s\n", k[0], k[1], ma[k], mb[k], 100*gap, bound, verdict)
	}
	return ok, nil
}
