package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"colarm/internal/plans"
)

// PrintFig8 renders the Figure 8 series for one dataset.
func PrintFig8(w io.Writer, dataset string, rows []Fig8Row) {
	fmt.Fprintf(w, "Figure 8 — closed frequent itemsets by primary threshold (%s)\n", dataset)
	fmt.Fprintf(w, "  %-12s %s\n", "threshold", "#CFIs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12.0f %d\n", 100*r.Threshold, r.CFIs)
	}
	fmt.Fprintln(w)
}

// PrintPlanGrid renders a Figures 9-11 style table: one block per focal
// subset size, one row per plan, one column per minsupport, with the
// optimizer's majority choice marked "<-- COLARM" (the figures' arrow).
func PrintPlanGrid(w io.Writer, dataset string, cells []GridCell) {
	fmt.Fprintf(w, "Avg execution time of mining plans (%s), minconf=%.0f%%\n", dataset, 100*cellsMinConf(cells))
	byFrac := map[float64][]GridCell{}
	var fracs []float64
	for _, c := range cells {
		if _, ok := byFrac[c.DQFrac]; !ok {
			fracs = append(fracs, c.DQFrac)
		}
		byFrac[c.DQFrac] = append(byFrac[c.DQFrac], c)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(fracs)))
	for _, frac := range fracs {
		group := byFrac[frac]
		sort.Slice(group, func(i, j int) bool { return group[i].MinSupp < group[j].MinSupp })
		fmt.Fprintf(w, "\n  |DQ| = %.0f%% of |D|\n", 100*frac)
		fmt.Fprintf(w, "  %-10s", "plan")
		for _, c := range group {
			fmt.Fprintf(w, " %14s", fmt.Sprintf("minsupp=%.0f%%", 100*c.MinSupp))
		}
		fmt.Fprintln(w)
		for _, k := range plans.Kinds() {
			fmt.Fprintf(w, "  %-10s", k)
			for _, c := range group {
				fmt.Fprintf(w, " %14s", fmtDur(c.AvgTime[k]))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  %-10s", "COLARM ->")
		for _, c := range group {
			fmt.Fprintf(w, " %14s", c.Chosen)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func cellsMinConf(cells []GridCell) float64 {
	if len(cells) == 0 {
		return 0
	}
	return cells[0].MinConf
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// PrintAccuracy renders the Section 5.1 plan-selection accuracy table.
func PrintAccuracy(w io.Writer, results []AccuracyResult, tol float64) {
	fmt.Fprintf(w, "COLARM optimizer plan-selection accuracy (tolerance %.0f%% extra cost)\n", 100*tol)
	fmt.Fprintf(w, "  %-10s %10s %9s %9s %14s\n", "dataset", "scenarios", "correct", "accuracy", "max miss cost")
	total, correct := 0, 0
	worst := 0.0
	for _, r := range results {
		fmt.Fprintf(w, "  %-10s %10d %9d %8.1f%% %13.1f%%\n",
			r.Dataset, r.Scenarios, r.Correct, 100*r.Accuracy(), 100*r.MaxMissRegret)
		total += r.Scenarios
		correct += r.Correct
		if r.MaxMissRegret > worst {
			worst = r.MaxMissRegret
		}
	}
	if total > 0 {
		fmt.Fprintf(w, "  %-10s %10d %9d %8.1f%% %13.1f%%\n",
			"overall", total, correct, 100*float64(correct)/float64(total), 100*worst)
	}
	fmt.Fprintln(w)
}

// PrintGains renders Figure 12: % gains over S-E-V per dataset plus the
// overall average.
func PrintGains(w io.Writer, rows []GainRow) {
	optimized := []plans.Kind{plans.SSEUV, plans.SSVS, plans.SSEV, plans.SVS}
	fmt.Fprintln(w, "Figure 12 — % execution-cost gain over the S-E-V baseline")
	fmt.Fprintf(w, "  %-10s", "dataset")
	for _, k := range optimized {
		fmt.Fprintf(w, " %10s", k)
	}
	fmt.Fprintln(w)
	overall := map[plans.Kind]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s", r.Dataset)
		for _, k := range optimized {
			fmt.Fprintf(w, " %9.1f%%", r.Gains[k])
			overall[k] += r.Gains[k]
		}
		fmt.Fprintln(w)
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "  %-10s", "overall")
		for _, k := range optimized {
			fmt.Fprintf(w, " %9.1f%%", overall[k]/float64(len(rows)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// PrintFig13 renders the fresh-local vs repeated-global CFI counts.
func PrintFig13(w io.Writer, dataset string, rows []Fig13Row) {
	fmt.Fprintf(w, "Figure 13 — avg local vs global CFIs (%s)\n", dataset)
	fmt.Fprintf(w, "  %-8s %16s %20s\n", "|DQ|", "fresh-local", "repeated-global")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.0f%% %16.1f %20.1f\n", 100*r.DQFrac, r.FreshLocal, r.RepeatedGlobal)
	}
	fmt.Fprintln(w)
}

// PrintSimpson renders the Section 5.3 anecdote report.
func PrintSimpson(w io.Writer, rep *SimpsonReport) {
	fmt.Fprintf(w, "Simpson's paradox probe — subset %s=%s (%d records)\n",
		rep.RangeAttr, rep.RangeValue, rep.SubsetSize)
	fmt.Fprintf(w, "  local CFIs at >=%.0f%% local support: %d\n", 100*rep.LocalThresh, rep.LocalCFIs)
	fmt.Fprintf(w, "  of which hidden globally (<=%.0f%% global support): %d\n", 100*rep.HideThresh, rep.HiddenCFIs)
	for _, ex := range rep.Examples {
		fmt.Fprintf(w, "    %s  local=%.0f%% global=%.0f%%\n", ex.Items, 100*ex.LocalSupp, 100*ex.GlobalSupp)
	}
	fmt.Fprintln(w)
}
