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

// withGOMAXPROCS runs f at GOMAXPROCS n, restoring the previous setting
// after. The merge wave runs on GOMAXPROCS workers, so n = 1 is its serial
// oracle.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// buildAt routes in under opt at GOMAXPROCS procs.
func buildAt(t *testing.T, procs int, in *ctree.Instance, opt Options) *Result {
	t.Helper()
	var res *Result
	var err error
	withGOMAXPROCS(procs, func() { res, err = Build(in, opt) })
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return res
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
		in   *ctree.Instance
		opt  Options
	}{
		{"zst/grid", zst, Options{SingleGroup: true}},
		{"zst/scan", zst, Options{SingleGroup: true, Pairer: PairerScan}},
		{"ast-intermingled", grouped, Options{IntraSkewBound: 0}},
		{"ast-clustered", clustered, Options{IntraSkewBound: 0}},
	}
	strategies := []order.Strategy{order.Multi, order.Greedy}
	for _, tc := range cases {
		for _, st := range strategies {
			opt := tc.opt
			opt.Strategy = st
			serial := buildAt(t, 1, tc.in, opt)
			for _, procs := range []int{2, 4, runtime.NumCPU() + 1} {
				label := fmt.Sprintf("%s/strategy=%v/GOMAXPROCS=%d", tc.name, st, procs)
				par := buildAt(t, procs, tc.in, opt)
				if par.Wirelength != serial.Wirelength {
					t.Errorf("%s: wirelength %v != serial %v", label, par.Wirelength, serial.Wirelength)
				}
				if par.Stats != serial.Stats {
					t.Errorf("%s: stats differ:\n par:    %v\n serial: %v", label, par.Stats, serial.Stats)
				}
				sameTree(t, label+"@", serial.Root, par.Root)
			}
		}
	}
}

// TestParallelMergeAcrossGOMAXPROCS pins the default configuration to the
// serial build at several GOMAXPROCS settings, covering the acceptance
// matrix {1, 4, NumCPU}.
func TestParallelMergeAcrossGOMAXPROCS(t *testing.T) {
	in := bench.Intermingled(bench.Small(500, 7), 5, 11)
	serial := buildAt(t, 1, in, Options{IntraSkewBound: 0})
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		res := buildAt(t, procs, in, Options{IntraSkewBound: 0})
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		if res.Wirelength != serial.Wirelength {
			t.Errorf("%s: wirelength %v != serial %v", label, res.Wirelength, serial.Wirelength)
		}
		if res.Stats != serial.Stats {
			t.Errorf("%s: stats differ:\n got:    %v\n serial: %v", label, res.Stats, serial.Stats)
		}
		sameTree(t, label+"@", serial.Root, res.Root)
	}
}

// TestParallelMergeWithGroupOffsets covers the prescribed-offset mode, whose
// pre-unioned registry must let every batch wave in parallel.
func TestParallelMergeWithGroupOffsets(t *testing.T) {
	in := bench.Intermingled(bench.Small(300, 3), 3, 17)
	opt := Options{IntraSkewBound: 0, GroupOffsets: []float64{0, 120, -80}}
	serial := buildAt(t, 1, in, opt)
	par := buildAt(t, 4, in, opt)
	if par.Wirelength != serial.Wirelength {
		t.Errorf("wirelength %v != serial %v", par.Wirelength, serial.Wirelength)
	}
	if par.Stats != serial.Stats {
		t.Errorf("stats differ:\n par:    %v\n serial: %v", par.Stats, serial.Stats)
	}
	sameTree(t, "offsets@", serial.Root, par.Root)
}

// TestSneakWireBitwiseAcrossGOMAXPROCS pins Stats.SneakWire bitwise between
// the serial and the parallel merge wave on Table II inputs whose sneaks
// land in waved batches: r2 and r3 intermingled under the grouping seeds
// experiments.Tables draws, at the paper's 10 ps bound. Adding each sneak's
// wire straight into the run's sum instead of one delta per merge rounds
// differently on every one of these rows, with bitwise-equal trees.
func TestSneakWireBitwiseAcrossGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		circuit, k int
		seed       int64
	}{
		{1, 4, 1008923},
		{1, 6, 1001006},
		{2, 4, 1009923},
	} {
		in := bench.Intermingled(bench.Generate(bench.Suite()[tc.circuit]), tc.k, tc.seed)
		opt := Options{IntraSkewBound: 10}
		serial := buildAt(t, 1, in, opt)
		par := buildAt(t, 2, in, opt)
		label := fmt.Sprintf("%s/k=%d/seed=%d", in.Name, tc.k, tc.seed)
		if serial.Stats.SneakEvents == 0 {
			t.Fatalf("%s: no sneak to sum", label)
		}
		if par.Stats != serial.Stats {
			t.Errorf("%s: stats differ:\n GOMAXPROCS=2: %v (SneakWire %x)\n GOMAXPROCS=1: %v (SneakWire %x)", label,
				par.Stats, math.Float64bits(par.Stats.SneakWire), serial.Stats, math.Float64bits(serial.Stats.SneakWire))
		}
		sameTree(t, label+"@", serial.Root, par.Root)
	}
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
	run := func(procs int, tr *obs.Trace) *Subtree {
		reg, err := NewRegistry(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var sub *Subtree
		withGOMAXPROCS(procs, func() { sub, err = BuildSubtree(in.SinkList(ids), in.NumGroups, Options{Trace: tr}, reg) })
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
	if par.Stats != serial.Stats {
		t.Errorf("stats differ:\n par:    %v\n serial: %v", par.Stats, serial.Stats)
	}
	sameTree(t, "subset@", serial.Root, par.Root)
}
