package core

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
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
// (tie-free) instance.
func TestGridPairerDifferentialZST(t *testing.T) {
	in := bench.Small(700, 21)
	scan, err := ZST(in, Options{Pairer: PairerScan})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ZST(in, Options{Pairer: PairerAuto})
	if err != nil {
		t.Fatal(err)
	}
	if scan.Wirelength != grid.Wirelength {
		t.Errorf("wirelength %v (scan) != %v (grid)", scan.Wirelength, grid.Wirelength)
	}
	if !statsEqualModuloScans(scan.Stats, grid.Stats) {
		t.Errorf("stats differ:\n scan: %v\n grid: %v", scan.Stats, grid.Stats)
	}
	if grid.Stats.PairScans <= 0 || scan.Stats.PairScans <= 0 {
		t.Errorf("pair scans not recorded (scan=%d grid=%d)", scan.Stats.PairScans, grid.Stats.PairScans)
	}
	if grid.Stats.PairScans >= scan.Stats.PairScans {
		t.Errorf("grid scans %d not below oracle scans %d", grid.Stats.PairScans, scan.Stats.PairScans)
	}
	rep := eval.Analyze(grid.Root, in, DefaultModel(), in.Source)
	if rep.GlobalSkew > 1e-6 {
		t.Errorf("grid tree skew %v, want 0", rep.GlobalSkew)
	}
}

// TestGridPairerDifferentialAST extends the differential to full AST-DME
// with sink groups: the snaking-aware merge key still dominates the
// distance, so PairerAuto's grid must remain exact — at B = 0, and on a
// Table II input at the paper's 10 ps bound — while scanning fewer pairs
// than the oracle.
func TestGridPairerDifferentialAST(t *testing.T) {
	base := bench.Small(400, 33)
	for _, tc := range []struct {
		name string
		in   *ctree.Instance
		opt  Options
	}{
		{"clustered", bench.Clustered(base, 4), Options{}},
		{"intermingled", bench.Intermingled(base, 4, 99), Options{}},
		{"paper-r2k8/B=10", paperR2K8(), Options{IntraSkewBound: 10}},
	} {
		opts := func(pm PairerMode) Options {
			o := tc.opt
			o.Pairer = pm
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
			t.Errorf("%s: wirelength %v (scan) != %v (grid)", tc.name, scan.Wirelength, grid.Wirelength)
		}
		if !statsEqualModuloScans(scan.Stats, grid.Stats) {
			t.Errorf("%s: stats differ:\n scan: %v\n grid: %v", tc.name, scan.Stats, grid.Stats)
		}
		if grid.Stats.PairScans >= scan.Stats.PairScans {
			t.Errorf("%s: grid scans %d not below oracle scans %d",
				tc.name, grid.Stats.PairScans, scan.Stats.PairScans)
		}
	}
}

// flatZSTInput is the flat-zst benchmark's input: 10k power-law sinks (the
// p10k placement, seed 1100) with loads drawn from seed 1 as the benchmark
// draws them.
func flatZSTInput() *ctree.Instance {
	in := bench.PowerLaw(10000, bench.PowerLawClusters, bench.PowerLawAlpha, 1100)
	r := rand.New(rand.NewSource(1))
	for i := range in.Sinks {
		in.Sinks[i].CapFF = 5 + r.Float64()*45
	}
	return in
}

// TestFlatZSTPairScansBudget pins the grid pairer's work on the flat-zst
// benchmark's input, routed ZST. The clipped ring walk over a grid
// re-filed once per round scans 172,947 candidates; the unclipped walk,
// stopping only once (r − 1)·cell passed the best key, over a grid
// re-celled midway through each round's retirements, scanned 993,835.
// Both counts, and the rebuilds, are exact: the per-round snapshot, the
// exact-box key and the radix rank change how the walk reads its
// candidates, never which cells it visits or what it counts.
func TestFlatZSTPairScansBudget(t *testing.T) {
	res, err := ZST(flatZSTInput(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Stats.PairScans, int64(172_947); got != want {
		t.Errorf("PairScans = %d, want %d", got, want)
	}
	if got, want := res.Stats.GridRebuilds, (spatial.RebuildStats{LiveDrop: 18}); got != want {
		t.Errorf("GridRebuilds = %+v, want %+v", got, want)
	}
}

// BenchmarkFlatZSTPairing routes the flat-zst benchmark's input ZST, the
// build whose time is mostly pairing: each round's ring walk over the
// snapshot, its re-file and the ranking of its candidates. It reports the
// scans per build, which TestFlatZSTPairScansBudget pins, so a timing can
// be read against the work the walk did.
func BenchmarkFlatZSTPairing(b *testing.B) {
	in := flatZSTInput()
	var scans int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ZST(in, Options{})
		if err != nil {
			b.Fatal(err)
		}
		scans = res.Stats.PairScans
	}
	b.ReportMetric(float64(scans), "scans/op")
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
