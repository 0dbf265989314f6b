package main

import (
	"bufio"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"colarm"
)

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// percentile returns the p-th percentile (0 < p <= 100) of the values
// by the nearest-rank rule, 0 for no values. The slice is sorted in
// place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[max(1, nearestRank(p, len(vals)))-1]
}

// nearestRank is ceil(p/100 * n), proof against p/100 not being exact
// in binary (99.9 % of 10000 is 9990, not 9991).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// tailPercentiles are the tail percentiles a timing may be reported
// at, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest tail percentile that n samples
// support: the one with at least ten samples beyond it. It returns 50
// when even p75 has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// pass is one whole pass of a timed run: the same work as every other
// pass of the run, so passes compare like with like.
type pass struct {
	wall      time.Duration   // first send to last reply
	latencies []time.Duration // one per completed operation
}

// quietPass takes each pass's throughput (operations per second),
// latency p50 and latency p95 (ms) and returns, of each, the quartile
// on the good side — the third quartile of the throughputs, the first
// of the latencies — with the number of operations over all passes.
// This sandbox shares its host: a neighbour slows the program by
// 10-30 % for a second or for ten, so within a run the passes — all the
// same work — differ only by how disturbed they were, and the
// disturbance has one sign. The good-side quartile is what the run did
// in its quiet quarter; the median pass, which was tried first, still
// moved 13-19 % between runs of identical work (README, repeatability).
func quietPass(passes []pass) (rate, p50, p95 float64, n int) {
	var rates, p50s, p95s []float64
	for _, p := range passes {
		n += len(p.latencies)
		if p.wall <= 0 || len(p.latencies) == 0 {
			continue
		}
		lat := ms(p.latencies)
		rates = append(rates, float64(len(lat))/p.wall.Seconds())
		p50s = append(p50s, median(lat))
		p95s = append(p95s, percentile(lat, 95))
	}
	return percentile(rates, 75), percentile(p50s, 25), percentile(p95s, 25), n
}

// answer identifies a rule set independent of rule order: the rule
// count and the wrapping sum of a per-rule hash over the rule's item
// labels and its absolute counts.
type answer struct {
	rules int
	hash  uint64
}

func ruleHash(r colarm.Rule) uint64 {
	h := fnv.New64a()
	io.WriteString(h, colarm.RuleKey(r))
	var buf [3 * 8]byte
	for i, c := range [3]int{r.SupportCount, r.AntecedentCount, r.SubsetSize} {
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(c >> (8 * b))
		}
	}
	h.Write(buf[:])
	return h.Sum64()
}

func answerOf(rules []colarm.Rule) answer {
	a := answer{rules: len(rules)}
	for _, r := range rules {
		a.hash += ruleHash(r)
	}
	return a
}

// promSample parses a Prometheus text exposition into series → value,
// keyed by the series as written ("name" or `name{labels}`). Comment
// lines and malformed lines are skipped.
func promSamples(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label braces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || cut < strings.LastIndexByte(line, '}') {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// promDelta sums after−before over every series whose name is name and
// whose label set contains all the given `key="value"` fragments.
func promDelta(before, after map[string]float64, name string, labels ...string) float64 {
	sum := 0.0
	for series, v := range after {
		base, rest, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
			}
		}
		if ok {
			sum += v - before[series]
		}
	}
	return sum
}
