package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// runCompare prints one row per workload and end-to-end metric of two
// results files, with both medians and a verdict against the metric's bound
// in BENCHMARK.json; where both files hold traced runs, it also prints the
// per-layer deltas.
func runCompare(w io.Writer, specPath, basePath, newPath string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	next, err := readRecords(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tspread\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			b, n := samples(base, wl.name, false, m.Name), samples(next, wl.name, false, m.Name)
			if len(b) == 0 || len(n) == 0 || m.Bound == nil {
				continue
			}
			v := judge(b, n, *m.Bound, m.Better == "higher")
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\n",
				wl.name, m.Name, median(b), median(n), 100*v.change, 100*v.spread, 100**m.Bound, v.verdict)
		}
	}
	layered := false
	for _, wl := range workloads {
		for _, m := range sp.PerLayer {
			b, n := samples(base, wl.name, true, m.Name), samples(next, wl.name, true, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			if !layered {
				fmt.Fprintln(tw, "\nworkload\tper-layer metric\tbase\tnew\tchange\t\t\t")
				layered = true
			}
			bm, nm := median(b), median(n)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t\t\t\n", wl.name, m.Name, bm, nm, relChange(bm, nm))
		}
	}
	return tw.Flush()
}

// samples collects one metric of one workload over a file's runs.
func samples(recs []record, workload string, traced bool, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func relChange(base, next float64) string {
	if base == 0 {
		if next == 0 {
			return "0"
		}
		return "new"
	}
	return fmt.Sprintf("%+.2f%%", 100*(next-base)/math.Abs(base))
}

// judgement is how a metric moved between two sets of runs.
type judgement struct {
	change  float64 // (new median − base median) / |base median|
	spread  float64 // the wider side's quartile distance / |base median|
	verdict string
}

// judge compares two sets of runs of one metric. A move within the bound is
// unchanged; beyond it, better or worse. When the runs' own spread exceeds
// the bound the move is unresolved, unless every new run reads better (or
// every one worse) than every base run.
func judge(base, next []float64, bound float64, higherBetter bool) judgement {
	bm, nm := median(base), median(next)
	scale := math.Abs(bm)
	if scale == 0 {
		scale = 1
	}
	j := judgement{
		change: (nm - bm) / scale,
		spread: math.Max(quartileSpread(base), quartileSpread(next)) / scale,
	}
	gain := j.change
	if !higherBetter {
		gain = -gain
	}
	better := func(a, b float64) bool { return (a > b) == higherBetter && a != b }
	allBetter, allWorse := true, true
	for _, x := range next {
		for _, y := range base {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	switch {
	case j.spread > bound && !allBetter && !allWorse:
		j.verdict = "unresolved"
	case gain < -bound:
		j.verdict = "worse"
	case gain > bound:
		j.verdict = "better"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// quartileSpread is the distance between the first and third quartiles of
// xs, by the exclusive method of Python's statistics.quantiles (0 for fewer
// than two values).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}
