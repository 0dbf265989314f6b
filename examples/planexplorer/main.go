// Plan explorer: run the same localized query through all six execution
// plans, compare the measured costs against the optimizer's estimates,
// and show which plan COLARM selects as the focal subset shrinks. This
// is a miniature of the paper's Figures 9-11 experiment.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"colarm"
)

func main() {
	fmt.Println("generating chess-like dataset (3196 records)...")
	ds, err := colarm.GenerateChess(1)
	if err != nil {
		log.Fatal(err)
	}
	// A notch above the paper's 60% primary keeps this demo snappy.
	eng, err := colarm.Open(ds, colarm.Options{PrimarySupport: 0.70})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index holds %d partitions\n", eng.NumPartitions())

	// Three focal subsets of decreasing size, selected by restricting
	// more and more attributes.
	subsets := []struct {
		label string
		rng   map[string][]string
	}{
		{"~50% of D", map[string][]string{"f00": {"f000"}}},
		{"~25% of D", map[string][]string{"f00": {"f000"}, "f01": {"f010"}}},
		{"~6% of D", map[string][]string{
			"f00": {"f000"}, "f01": {"f010"}, "f02": {"f020"}, "f03": {"f030"}}},
	}
	allPlans := []colarm.Plan{colarm.SEV, colarm.SVS, colarm.SSEV, colarm.SSVS, colarm.SSEUV, colarm.ARM}

	for _, sub := range subsets {
		base := colarm.Query{
			Range:         sub.rng,
			MinSupport:    0.85,
			MinConfidence: 0.90,
			MaxConsequent: 1,
		}
		// Optimizer estimates first.
		ests, err := eng.Explain(base)
		if err != nil {
			log.Fatal(err)
		}
		sort.Slice(ests, func(i, j int) bool { return ests[i].Cost < ests[j].Cost })
		chosen := ests[0].Plan

		fmt.Printf("\nfocal subset %s, minsupp 85%%, minconf 90%% — COLARM picks %s\n", sub.label, chosen)
		fmt.Printf("  %-10s %12s %12s %10s\n", "plan", "estimated", "measured", "rules")
		for _, p := range allPlans {
			q := base
			q.Plan = p
			start := time.Now()
			res, err := eng.Mine(q)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := time.Since(start)
			est := "-"
			for _, e := range ests {
				if e.Plan == p {
					est = fmt.Sprintf("%.2fms", e.Cost/1e6)
				}
			}
			marker := ""
			if p == chosen {
				marker = "  <-- chosen"
			}
			fmt.Printf("  %-10s %12s %12s %10d%s\n",
				p, est, fmt.Sprintf("%.2fms", float64(elapsed.Microseconds())/1000), len(res.Rules), marker)
		}
	}
}
