package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/obs"
	"repro/internal/order"
)

// sameTree recursively compares topology and every committed quantity of
// two merge trees: sink identity at leaves, bitwise edge lengths, regions
// and per-group delay intervals. Any difference fails the test with a path.
func sameTree(t *testing.T, label string, a, b *ctree.Node) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", label)
	}
	if a == nil {
		return
	}
	if a.IsLeaf() != b.IsLeaf() {
		t.Fatalf("%s: leaf/internal mismatch", label)
	}
	if a.IsLeaf() {
		if a.Sink.ID != b.Sink.ID {
			t.Fatalf("%s: sink %d != %d", label, a.Sink.ID, b.Sink.ID)
		}
		return
	}
	if a.EdgeL != b.EdgeL || a.EdgeR != b.EdgeR {
		t.Fatalf("%s: edges (%v,%v) != (%v,%v)", label, a.EdgeL, a.EdgeR, b.EdgeL, b.EdgeR)
	}
	if a.Region != b.Region {
		t.Fatalf("%s: regions differ", label)
	}
	if !a.Delay.Equal(b.Delay) {
		t.Fatalf("%s: delay sets differ: %v vs %v", label, a.Delay, b.Delay)
	}
	sameTree(t, label+"L", a.Left, b.Left)
	sameTree(t, label+"R", a.Right, b.Right)
}

// statsEqualModuloSneakWire compares stats exactly except SneakWire, whose
// serial accumulation order differs from the committed per-merge deltas by
// float rounding only.
func statsEqualModuloSneakWire(a, b Stats) bool {
	wa, wb := a.SneakWire, b.SneakWire
	a.SneakWire, b.SneakWire = 0, 0
	return a == b && math.Abs(wa-wb) <= 1e-6*(1+math.Abs(wa))
}

// TestParallelMergeDifferential: executing the merge bodies across workers
// must reproduce the serial build exactly — bitwise wirelength, identical
// topology and stats — for both pairing engines, both merging strategies,
// and ZST as well as grouped AST-DME runs.
func TestParallelMergeDifferential(t *testing.T) {
	zst := bench.Small(600, 21)
	grouped := bench.Intermingled(bench.Small(400, 33), 4, 99)
	clustered := bench.Clustered(bench.Small(400, 33), 6)
	cases := []struct {
		name string
		run  func(workers int, st order.Strategy) (*Result, error)
	}{
		{"zst/grid", func(w int, st order.Strategy) (*Result, error) {
			return ZST(zst, Options{Pairer: PairerGrid, MergeWorkers: w, Strategy: st})
		}},
		{"zst/scan", func(w int, st order.Strategy) (*Result, error) {
			return ZST(zst, Options{Pairer: PairerScan, MergeWorkers: w, Strategy: st})
		}},
		{"ast-intermingled", func(w int, st order.Strategy) (*Result, error) {
			return Build(grouped, Options{IntraSkewBound: 0, MergeWorkers: w, Strategy: st})
		}},
		{"ast-clustered", func(w int, st order.Strategy) (*Result, error) {
			return Build(clustered, Options{IntraSkewBound: 0, MergeWorkers: w, Strategy: st})
		}},
	}
	strategies := []order.Strategy{order.Multi, order.Greedy}
	for _, tc := range cases {
		for _, st := range strategies {
			serial, err := tc.run(1, st)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, runtime.NumCPU() + 1} {
				label := fmt.Sprintf("%s/strategy=%v/workers=%d", tc.name, st, workers)
				par, err := tc.run(workers, st)
				if err != nil {
					t.Fatal(err)
				}
				if par.Wirelength != serial.Wirelength {
					t.Errorf("%s: wirelength %v != serial %v", label, par.Wirelength, serial.Wirelength)
				}
				if !statsEqualModuloSneakWire(par.Stats, serial.Stats) {
					t.Errorf("%s: stats differ:\n par:    %v\n serial: %v", label, par.Stats, serial.Stats)
				}
				sameTree(t, label+"@", serial.Root, par.Root)
			}
		}
	}
}

// TestParallelMergeAcrossGOMAXPROCS pins the default configuration
// (MergeWorkers 0 ⇒ GOMAXPROCS) to the serial build at several GOMAXPROCS
// settings, covering the acceptance matrix {1, 4, NumCPU}.
func TestParallelMergeAcrossGOMAXPROCS(t *testing.T) {
	in := bench.Intermingled(bench.Small(500, 7), 5, 11)
	serial, err := Build(in, Options{IntraSkewBound: 0, MergeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		res, err := Build(in, Options{IntraSkewBound: 0})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		if res.Wirelength != serial.Wirelength {
			t.Errorf("%s: wirelength %v != serial %v", label, res.Wirelength, serial.Wirelength)
		}
		if !statsEqualModuloSneakWire(res.Stats, serial.Stats) {
			t.Errorf("%s: stats differ:\n got:    %v\n serial: %v", label, res.Stats, serial.Stats)
		}
		sameTree(t, label+"@", serial.Root, res.Root)
	}
}

// TestMergeWorkersWithGroupOffsets covers the prescribed-offset mode, whose
// pre-unioned registry must let every batch wave in parallel.
func TestMergeWorkersWithGroupOffsets(t *testing.T) {
	in := bench.Intermingled(bench.Small(300, 3), 3, 17)
	offsets := []float64{0, 120, -80}
	serial, err := Build(in, Options{IntraSkewBound: 0, GroupOffsets: offsets, MergeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(in, Options{IntraSkewBound: 0, GroupOffsets: offsets, MergeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Wirelength != serial.Wirelength {
		t.Errorf("wirelength %v != serial %v", par.Wirelength, serial.Wirelength)
	}
	sameTree(t, "offsets@", serial.Root, par.Root)
}

// TestWaveGateReadsBuildGroups pins that the merge wave's gate reads the
// build's own groups, not the instance's: a sub-build whose sinks lack some
// groups must still fan out once the groups it has share one union root,
// and must route bitwise what its serial run routes.
func TestWaveGateReadsBuildGroups(t *testing.T) {
	in := bench.Intermingled(bench.Small(600, 5), 4, 13)
	var ids []int
	for _, s := range in.Sinks {
		if s.Group < 2 {
			ids = append(ids, s.ID)
		}
	}
	run := func(workers int, tr *obs.Trace) *Subtree {
		reg, err := NewRegistry(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := BuildSubtree(in, ids, Options{MergeWorkers: workers, Trace: tr}, reg)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	serial := run(1, nil)
	tr := obs.New("wave")
	par := run(4, tr)
	tr.Close()
	if w := tr.Summary().MergeWave; w == nil || w.Rounds < 1 {
		t.Fatalf("no wave round on a sub-build whose own groups unite: %+v", w)
	}
	if !statsEqualModuloSneakWire(par.Stats, serial.Stats) {
		t.Errorf("stats differ:\n par:    %v\n serial: %v", par.Stats, serial.Stats)
	}
	sameTree(t, "subset@", serial.Root, par.Root)
}
