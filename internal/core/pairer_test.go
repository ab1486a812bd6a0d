package core

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/order"
	"repro/internal/spatial"
)

// statsEqualModuloScans compares run stats ignoring the pairing-engine
// bookkeeping — PairScans and GridRebuilds — which legitimately differs
// between the oracle and the grid (that difference is the whole point of
// the grid). Everything the merge bodies produce must agree exactly.
func statsEqualModuloScans(a, b Stats) bool {
	a.PairScans, b.PairScans = 0, 0
	a.GridRebuilds, b.GridRebuilds = spatial.RebuildStats{}, spatial.RebuildStats{}
	return a == b
}

// TestGridPairerDifferentialZST: PairerAuto, which pairs on the spatial grid
// at this size, must reproduce the all-pairs oracle's zero-skew tree exactly
// — same wirelength bit for bit, same merge statistics — on a seeded
// (tie-free) instance, for both merging strategies.
func TestGridPairerDifferentialZST(t *testing.T) {
	in := bench.Small(700, 21)
	for _, st := range []order.Strategy{order.Multi, order.Greedy} {
		opts := func(pm PairerMode) Options {
			return Options{Pairer: pm, Strategy: st}
		}
		scan, err := ZST(in, opts(PairerScan))
		if err != nil {
			t.Fatal(err)
		}
		grid, err := ZST(in, opts(PairerAuto))
		if err != nil {
			t.Fatal(err)
		}
		if scan.Wirelength != grid.Wirelength {
			t.Errorf("strategy %v: wirelength %v (scan) != %v (grid)", st, scan.Wirelength, grid.Wirelength)
		}
		if !statsEqualModuloScans(scan.Stats, grid.Stats) {
			t.Errorf("strategy %v: stats differ:\n scan: %v\n grid: %v", st, scan.Stats, grid.Stats)
		}
		if grid.Stats.PairScans <= 0 || scan.Stats.PairScans <= 0 {
			t.Errorf("strategy %v: pair scans not recorded (scan=%d grid=%d)",
				st, scan.Stats.PairScans, grid.Stats.PairScans)
		}
		if grid.Stats.PairScans >= scan.Stats.PairScans {
			t.Errorf("strategy %v: grid scans %d not below oracle scans %d",
				st, grid.Stats.PairScans, scan.Stats.PairScans)
		}
		rep := eval.Analyze(grid.Root, in, DefaultModel(), in.Source)
		if rep.GlobalSkew > 1e-6 {
			t.Errorf("strategy %v: grid tree skew %v, want 0", st, rep.GlobalSkew)
		}
	}
}

// TestGridPairerDifferentialAST extends the differential to full AST-DME
// with sink groups: the snaking-aware merge key still dominates the
// distance, so PairerAuto's grid must remain exact — at B = 0, and on a
// Table II input at the paper's 10 ps bound with the offset leash at W = 0
// and 20 — while scanning fewer pairs than the oracle.
func TestGridPairerDifferentialAST(t *testing.T) {
	base := bench.Small(400, 33)
	paper := paperR2K8()
	for _, tc := range []struct {
		name string
		in   *ctree.Instance
		opt  Options
	}{
		{"clustered", bench.Clustered(base, 4), Options{}},
		{"intermingled", bench.Intermingled(base, 4, 99), Options{}},
		{"paper-r2k8/B=10/W=0", paper, Options{IntraSkewBound: 10}},
		{"paper-r2k8/B=10/W=20", paper, Options{IntraSkewBound: 10, InterSkewBound: 20}},
	} {
		for _, st := range []order.Strategy{order.Multi, order.Greedy} {
			opts := func(pm PairerMode) Options {
				o := tc.opt
				o.Pairer = pm
				o.Strategy = st
				return o
			}
			scan, err := Build(tc.in, opts(PairerScan))
			if err != nil {
				t.Fatal(err)
			}
			grid, err := Build(tc.in, opts(PairerAuto))
			if err != nil {
				t.Fatal(err)
			}
			if scan.Wirelength != grid.Wirelength {
				t.Errorf("%s/%v: wirelength %v (scan) != %v (grid)",
					tc.name, st, scan.Wirelength, grid.Wirelength)
			}
			if !statsEqualModuloScans(scan.Stats, grid.Stats) {
				t.Errorf("%s/%v: stats differ:\n scan: %v\n grid: %v", tc.name, st, scan.Stats, grid.Stats)
			}
			if grid.Stats.PairScans >= scan.Stats.PairScans {
				t.Errorf("%s/%v: grid scans %d not below oracle scans %d",
					tc.name, st, grid.Stats.PairScans, scan.Stats.PairScans)
			}
		}
	}
}

// TestFlatZSTPairScansBudget pins the grid pairer's work on the flat-zst
// benchmark's input: 10k power-law sinks (the p10k placement, seed 1100)
// with loads drawn from seed 1 as the benchmark draws them, routed ZST
// under Multi. The clipped ring walk over a grid re-filed once per round
// scans about 173k candidates; the unclipped walk, stopping only once
// (r − 1)·cell passed the best key, over a grid re-celled midway through
// each round's retirements, scanned 993,835.
func TestFlatZSTPairScansBudget(t *testing.T) {
	in := bench.PowerLaw(10000, bench.PowerLawClusters, bench.PowerLawAlpha, 1100)
	r := rand.New(rand.NewSource(1))
	for i := range in.Sinks {
		in.Sinks[i].CapFF = 5 + r.Float64()*45
	}
	res, err := ZST(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.PairScans; got > 300_000 {
		t.Errorf("PairScans = %d, want ≤ 300000", got)
	}
	t.Logf("PairScans %d, grid rebuilds %+v", res.Stats.PairScans, res.Stats.GridRebuilds)
}

// TestPairerAutoSelection: auto mode must keep the oracle below the
// 64-item floor, and PairerScan must win at any size.
func TestPairerAutoSelection(t *testing.T) {
	b := &builder{opt: Options{}}
	if b.useGridPairer(64) != true {
		t.Error("auto at 64 items: want grid")
	}
	if b.useGridPairer(63) != false {
		t.Error("auto below 64 items: want scan")
	}
	b = &builder{opt: Options{Pairer: PairerScan}}
	if b.useGridPairer(1<<20) != false {
		t.Error("forced scan: want scan")
	}
}
