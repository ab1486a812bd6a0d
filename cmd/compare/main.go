// Command compare regenerates the thesis's evaluation tables, Table I
// (clusters of sink groups) and Table II (intermingled sink groups), each
// comparing AST-DME against the EXT-BST baseline on the r1–r5 circuits. It
// prints our measured numbers side by side with the thesis's reported ones
// (internal/paperdata), with per-row deltas, plus the measured worst
// intra-group skew, which the thesis does not report. A grp skew marked *
// comes from a row where the router reported a build over its bound.
//
// Usage:
//
//	compare -table 2           # Table II, full suite
//	compare -table 0 -quick    # both tables, r1–r2 (seconds), for smoke runs
//	compare -repeats 3         # mean over 3 grouping seeds per intermingled row
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/paperdata"
)

func main() {
	var (
		table   = flag.Int("table", 2, "thesis table: 1 (clustered), 2 (intermingled), or 0 for both")
		quick   = flag.Bool("quick", false, "run only r1–r2")
		repeats = flag.Int("repeats", 1, "grouping seeds per intermingled row (means reported)")
	)
	flag.Parse()
	if *table < 0 || *table > 2 {
		fmt.Fprintf(os.Stderr, "compare: -table %d: want 0, 1 or 2\n", *table)
		os.Exit(2)
	}

	circuits := bench.Suite()
	if *quick {
		circuits = circuits[:2]
	}
	tables := []struct {
		no       int
		grouping experiments.Grouping
		paper    []paperdata.Row
	}{
		{1, experiments.Clustered, paperdata.TableI},
		{2, experiments.Intermingled, paperdata.TableII},
	}
	if *table != 0 {
		tables = tables[*table-1 : *table]
	}
	groupings := make([]experiments.Grouping, len(tables))
	for i, tb := range tables {
		groupings[i] = tb.grouping
	}
	// One call, so each circuit's EXT-BST baseline is routed once for both
	// tables.
	results, err := experiments.Tables(groupings, circuits, experiments.GroupCounts, *repeats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	for ti, tb := range tables {
		rows := results[ti]
		fmt.Printf("Table %d (%s): paper vs measured\n", tb.no, tb.grouping)
		fmt.Printf("%-4s %3s %-8s | %12s %8s %6s | %12s %8s %6s %9s | %8s\n",
			"ckt", "k", "algo", "paper wire", "red%", "skew", "ours wire", "red%", "skew", "grp skew", "Δwire%")
		for _, r := range rows {
			pr, ok := paperdata.Find(tb.paper, r.Circuit, r.Groups, r.Algorithm)
			if !ok {
				continue
			}
			dWire := 100 * (r.Wirelen - pr.Wirelen) / pr.Wirelen
			mark := " "
			if r.OverBound {
				mark = "*"
			}
			fmt.Printf("%-4s %3d %-8s | %12.0f %7.2f%% %6.0f | %12.0f %7.2f%% %6.0f %8.1f%s | %+7.2f%%\n",
				r.Circuit, r.Groups, r.Algorithm,
				pr.Wirelen, pr.ReductionPct, pr.MaxSkewPs,
				r.Wirelen, r.ReductionPct, r.MaxSkewPs, r.MaxGroupSkewPs, mark, dWire)
		}
		fmt.Print("* the router reported a build over its skew bound\n\n")
	}
}
