// Useful-skew scheduling: the thesis's introduction surveys prescribed-skew
// routing (its refs [6–8]) where inter-group skews are deliberately non-zero
// to improve operating frequency — e.g. giving a slow pipeline stage's
// capture registers a late clock. This example prescribes explicit
// inter-group offsets (core.Options.GroupOffsets, the thesis's Ch. II
// "specify the inter-group skew explicitly"), then verifies the routed tree
// realizes them: every group within the bound B, and every sink pair of
// groups 0 and g within offset g ± B. A pairwise range lo ≤ delay(Gj) −
// delay(Gi) ≤ hi at least 2B wide is therefore met by prescribing its
// midpoint: G1 − G0 ∈ [60, 100] ps at B = 10 is the +80 ps target below.
//
//	go run ./examples/usefulskew
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
)

func main() {
	// Three intermingled register groups: launch stage, a slow combinational
	// stage's capture registers (given +80 ps of useful skew), and a fast
	// stage's capture registers (clocked 40 ps early).
	in := bench.Intermingled(bench.Small(150, 31), 3, 17)
	targets := []float64{0, +80, -40}
	const bound = 10

	res, err := core.Build(in, core.Options{
		IntraSkewBound: bound,
		GroupOffsets:   targets,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)

	lo := make([]float64, in.NumGroups)
	hi := make([]float64, in.NumGroups)
	for g := range lo {
		lo[g], hi[g] = math.Inf(1), math.Inf(-1)
	}
	for _, s := range in.Sinks {
		d := rep.SinkDelay[s.ID]
		lo[s.Group] = math.Min(lo[s.Group], d)
		hi[s.Group] = math.Max(hi[s.Group], d)
	}

	fmt.Printf("prescribed-skew routing, %d sinks, 3 groups, B = %d ps, wire %.0f\n\n", len(in.Sinks), bound, res.Wirelength)
	fmt.Printf("%-8s %12s %24s %14s\n", "group", "target(ps)", "Gg − G0 over sink pairs", "intra skew(ps)")
	for g := 0; g < in.NumGroups; g++ {
		fmt.Printf("G%-7d %12.0f %24s %14.1f\n",
			g, targets[g], fmt.Sprintf("[%.1f, %.1f]", lo[g]-hi[0], hi[g]-lo[0]), rep.GroupSkew[g])
	}
	fmt.Printf("\nG1 − G0 ∈ [60, 100] ps is met by its midpoint: measured [%.1f, %.1f]\n",
		lo[1]-hi[0], hi[1]-lo[0])
}
