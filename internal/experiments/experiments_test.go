package experiments

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
)

func TestTableSmall(t *testing.T) {
	// A miniature table run exercising the full pipeline on small circuits.
	circuits := []bench.Spec{
		{Name: "t1", Sinks: 60, Side: 3200 * 8, Seed: 11},
		{Name: "t2", Sinks: 90, Side: 3200 * 10, Seed: 12},
	}
	groupings := []Grouping{Clustered, Intermingled}
	tables, err := Tables(groupings, circuits, []int{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ti, rows := range tables {
		grouping := groupings[ti]
		if len(rows) != 2*(1+2) {
			t.Fatalf("%v: %d rows", grouping, len(rows))
		}
		for _, r := range rows {
			if r.Wirelen <= 0 || r.CPUSeconds < 0 {
				t.Errorf("%v: bad row %+v", grouping, r)
			}
			if r.Algorithm == "EXT-BST" {
				if r.MaxSkewPs > EXTBoundPs*1.001 {
					t.Errorf("%v: EXT-BST skew %v exceeds bound", grouping, r.MaxSkewPs)
				}
			} else if r.MaxGroupSkewPs > 3*ASTIntraBoundPs {
				t.Errorf("%v: AST-DME intra-group skew %v way above bound %v",
					grouping, r.MaxGroupSkewPs, ASTIntraBoundPs)
			}
		}
	}
}

// TestFig1Exact reproduces the 17-versus-16 wirelength comparison of thesis
// Fig. 1 with hand-built merges under the pathlength model: subtree A (two
// sinks 4 apart, internal delay 2) and subtree B (two sinks 10 apart,
// internal delay 5) merge at coincident merging segments, so exact zero skew
// snakes 3 extra units (total 4+10+3 = 17) while a skew bound of 1 snakes
// only 2 (total 16).
func TestFig1Exact(t *testing.T) {
	lin := rctree.Linear{}
	s := func(x, y float64) geom.Rect { return geom.RectFromPoint(geom.Point{X: x, Y: y}) }

	// Subtree A: sinks (0,0) and (4,0) → arc through (2,0), delay 2.
	a0, a1 := s(0, 0), s(4, 0)
	mgA := rctree.Balance(lin, geom.DistRR(a0, a1), 0, 1, 0, 1)
	if mgA.Total() != 4 {
		t.Fatalf("A wire = %v", mgA.Total())
	}
	msA := geom.MergeLocus(a0, a1, mgA.Ea, mgA.Eb)

	// Subtree B: sinks (2,5) and (2,−5) → point (2,0), delay 5.
	b0, b1 := s(2, 5), s(2, -5)
	mgB := rctree.Balance(lin, geom.DistRR(b0, b1), 0, 1, 0, 1)
	if mgB.Total() != 10 {
		t.Fatalf("B wire = %v", mgB.Total())
	}
	msB := geom.MergeLocus(b0, b1, mgB.Ea, mgB.Eb)

	d := geom.DistRR(msA, msB)
	if d != 0 {
		t.Fatalf("merging segments should touch, d = %v", d)
	}

	// Zero skew: A (delay 2) must be slowed to 5 → snake 3 → total 17.
	zst := rctree.Balance(lin, d, 2, 2, 5, 2)
	totalZST := mgA.Total() + mgB.Total() + zst.Total()
	if totalZST != 17 {
		t.Errorf("ZST wirelength = %v, want 17 (thesis Fig. 1a)", totalZST)
	}
	if da, db := 2+zst.Ea, 5+zst.Eb; da != db {
		t.Errorf("ZST skew %v", da-db)
	}

	// Bounded skew 1: snake only 2 → total 16.
	bst := rctree.BoundedBalance(lin, d,
		rctree.PointInterval(2), 2, rctree.PointInterval(5), 2, 1)
	totalBST := mgA.Total() + mgB.Total() + bst.Total()
	if totalBST != 16 {
		t.Errorf("BST wirelength = %v, want 16 (thesis Fig. 1b)", totalBST)
	}
	iv := rctree.MergedInterval(lin, bst, rctree.PointInterval(2), 2, rctree.PointInterval(5), 2)
	if iv.Width() > 1 {
		t.Errorf("BST skew %v exceeds bound 1", iv.Width())
	}
}

func TestFig1RouterLevel(t *testing.T) {
	res, err := Fig1(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ZSTSkew > 1e-9 {
		t.Errorf("ZST skew = %v", res.ZSTSkew)
	}
	if res.BSTSkew > res.Bound+1e-9 {
		t.Errorf("BST skew = %v exceeds bound %v", res.BSTSkew, res.Bound)
	}
	if res.BSTWire > res.ZSTWire {
		t.Errorf("BST wire %v above ZST wire %v", res.BSTWire, res.ZSTWire)
	}
	t.Logf("Fig.1 router-level: ZST %v / skew %v vs BST %v / skew %v",
		res.ZSTWire, res.ZSTSkew, res.BSTWire, res.BSTSkew)
}

func TestFig2SavesWire(t *testing.T) {
	res, err := Fig2(100, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.ASTWire >= res.StitchWire {
		t.Errorf("AST %v not below stitch %v", res.ASTWire, res.StitchWire)
	}
	if res.SavingPct < 5 {
		t.Errorf("saving %.1f%% too small for intermingled groups", res.SavingPct)
	}
	t.Logf("Fig.2: stitch=%.0f ast=%.0f saving=%.1f%%", res.StitchWire, res.ASTWire, res.SavingPct)
}

func TestAblationsRun(t *testing.T) {
	in := bench.Intermingled(bench.Small(80, 2), 4, 7)
	var wires []float64
	for _, ab := range Ablations() {
		wire, skew, gskew, err := RunAblation(in, ab)
		if err != nil {
			t.Fatalf("%s: %v", ab.Name, err)
		}
		if wire <= 0 || math.IsNaN(skew) || math.IsNaN(gskew) {
			t.Errorf("%s: bad results %v %v %v", ab.Name, wire, skew, gskew)
		}
		wires = append(wires, wire)
	}
	// Sanity: ablations differ from the default (they change real behavior).
	distinct := 0
	for _, w := range wires[1:] {
		if math.Abs(w-wires[0]) > 1e-9 {
			distinct++
		}
	}
	if distinct == 0 {
		t.Error("no ablation changed the result")
	}
}

func TestGroupInstanceModes(t *testing.T) {
	base := bench.Small(60, 3)
	c := groupInstance(base, Clustered, 4, 1)
	i := groupInstance(base, Intermingled, 4, 1)
	if c.NumGroups != 4 || i.NumGroups != 4 {
		t.Fatal("wrong group counts")
	}
	var ctr *ctree.Instance = c
	_ = ctr
	if Clustered.String() != "clustered" || Intermingled.String() != "intermingled" {
		t.Error("grouping names")
	}
}

func TestTableRepeatsAveraging(t *testing.T) {
	circuits := []bench.Spec{{Name: "t1", Sinks: 50, Side: 3200 * 7, Seed: 4}}
	groupings := []Grouping{Intermingled, Clustered}
	t1, err := Tables(groupings, circuits, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Tables(groupings, circuits, []int{3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	single, multi := t1[0], t3[0]
	if len(single) != 2 || len(multi) != 2 {
		t.Fatalf("rows %d/%d", len(single), len(multi))
	}
	// Baselines are identical; the averaged AST row generally differs from a
	// single seed (different grouping assignments).
	if single[0].Wirelen != multi[0].Wirelen {
		t.Error("baseline should not depend on repeats")
	}
	if multi[1].Wirelen <= 0 {
		t.Error("averaged row empty")
	}
	// Both tables head the circuit with its one EXT-BST baseline row.
	if t1[1][0] != single[0] {
		t.Errorf("clustered baseline %+v differs from intermingled %+v", t1[1][0], single[0])
	}
	// Clustered grouping is deterministic: repeats must not change anything.
	if c1, c3 := t1[1], t3[1]; c1[1].Wirelen != c3[1].Wirelen {
		t.Error("clustered rows should be repeat-invariant")
	}
}
