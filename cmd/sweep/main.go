// Command sweep produces data for the evaluation's parameter studies:
//
//	sweep -mode bound      # bounded-skew wirelength vs skew bound (Fig. 1 curve)
//	sweep -mode groups     # AST-DME vs EXT-BST vs #groups, both groupings
//	sweep -mode difficulty # AST-DME gain vs degree of intermingling (Blend)
//	sweep -mode offsetfloat# wire/skew trade-off of the InterSkewBound knob
//
// Every mode routes one suite circuit (-circuit r1..r5, default r1) and
// writes CSV to stdout. All modes accept -cpuprofile/-memprofile for pprof
// output. Performance is measured by cmd/dmebench, not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/profutil"
)

func main() {
	var (
		mode       = flag.String("mode", "groups", "bound | groups | difficulty | offsetfloat")
		circuit    = flag.String("circuit", "r1", "suite circuit (r1..r5)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := profutil.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	sp, err := bench.BySuiteName(*circuit)
	if err != nil {
		fatal(err)
	}
	base := bench.Generate(sp)

	switch *mode {
	case "bound":
		fmt.Println("bound_ps,wirelen,skew_ps")
		for _, bound := range []float64{0, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000} {
			res, err := core.EXTBST(base, bound, core.Options{})
			if err != nil {
				fatal(err)
			}
			rep := analyze(res, base)
			fmt.Printf("%g,%.0f,%.2f\n", bound, res.Wirelength, rep.GlobalSkew)
		}
	case "groups":
		ext, err := core.EXTBST(base, experiments.EXTBoundPs, core.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Println("grouping,k,wirelen,reduction_pct,maxskew_ps,groupskew_ps")
		for _, grouping := range []string{"clustered", "intermingled"} {
			for _, k := range []int{2, 4, 6, 8, 10, 12, 16} {
				var in *ctree.Instance
				if grouping == "clustered" {
					in = bench.Clustered(base, k)
				} else {
					in = bench.Intermingled(base, k, sp.Seed*1000+int64(k))
				}
				res, err := core.Build(in, core.Options{IntraSkewBound: experiments.ASTIntraBoundPs})
				if err != nil {
					fatal(err)
				}
				rep := analyze(res, in)
				fmt.Printf("%s,%d,%.0f,%.2f,%.1f,%.1f\n", grouping, k, res.Wirelength,
					100*(ext.Wirelength-res.Wirelength)/ext.Wirelength,
					rep.GlobalSkew, rep.MaxGroupSkew)
			}
		}
	case "difficulty":
		ext, err := core.EXTBST(base, experiments.EXTBoundPs, core.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Println("mix,wirelen,reduction_pct,maxskew_ps,groupskew_ps")
		for _, mix := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1} {
			in := bench.Blend(base, 6, mix, sp.Seed*7)
			res, err := core.Build(in, core.Options{IntraSkewBound: experiments.ASTIntraBoundPs})
			if err != nil {
				fatal(err)
			}
			rep := analyze(res, in)
			fmt.Printf("%.2f,%.0f,%.2f,%.1f,%.1f\n", mix, res.Wirelength,
				100*(ext.Wirelength-res.Wirelength)/ext.Wirelength,
				rep.GlobalSkew, rep.MaxGroupSkew)
		}
	case "offsetfloat":
		in := bench.Intermingled(base, 6, sp.Seed*1000+6)
		fmt.Println("inter_window_ps,wirelen,maxskew_ps,groupskew_ps")
		for _, w := range []float64{0, 10, 20, 40, 80, 120} {
			res, err := core.Build(in, core.Options{
				IntraSkewBound: experiments.ASTIntraBoundPs, InterSkewBound: w,
			})
			if err != nil {
				fatal(err)
			}
			rep := analyze(res, in)
			fmt.Printf("%g,%.0f,%.1f,%.1f\n", w, res.Wirelength, rep.GlobalSkew, rep.MaxGroupSkew)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func analyze(res *core.Result, in *ctree.Instance) *eval.Report {
	return eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
