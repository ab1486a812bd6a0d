package eval

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
)

// hand-built tree: ((s0,s1) at node a, s2) at root, with known edges.
func buildKnown(m rctree.Model) (*ctree.Node, *ctree.Instance) {
	in := &ctree.Instance{
		Name: "known",
		Sinks: []ctree.Sink{
			{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 10, Group: 0},
			{ID: 1, Loc: geom.Point{X: 10, Y: 0}, CapFF: 10, Group: 0},
			{ID: 2, Loc: geom.Point{X: 5, Y: 8}, CapFF: 20, Group: 1},
		},
		Source:    geom.Point{X: 5, Y: 20},
		NumGroups: 2,
	}
	l0 := ctree.NewLeaf(&in.Sinks[0])
	l1 := ctree.NewLeaf(&in.Sinks[1])
	l2 := ctree.NewLeaf(&in.Sinks[2])
	a := &ctree.Node{ID: 3, Left: l0, Right: l1, EdgeL: 5, EdgeR: 5,
		Groups: []int{0}, Region: geom.MergeLocus(l0.Region, l1.Region, 5, 5)}
	root := &ctree.Node{ID: 4, Left: a, Right: l2, EdgeL: 6, EdgeR: 6,
		Groups: []int{0, 1}, Region: geom.MergeLocus(a.Region, l2.Region, 6, 6)}
	root.Recompute(m)
	root.Embed(geom.ToUV(in.Source))
	return root, in
}

func TestAnalyzeKnownTree(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)
	root, in := buildKnown(m)
	rep := Analyze(root, in, m, in.Source)

	if rep.Sinks != 3 {
		t.Fatalf("sinks = %d", rep.Sinks)
	}
	if rep.TreeWire != 22 {
		t.Errorf("tree wire = %v, want 22", rep.TreeWire)
	}
	// Hand-compute group 0 delay: edge(6, capA)+edge(5, 10).
	capA := 20 + m.WireCap(10)
	want0 := m.WireDelay(6, capA) + m.WireDelay(5, 10)
	if math.Abs(rep.SinkDelay[0]-want0) > 1e-12 {
		t.Errorf("sink 0 delay = %v, want %v", rep.SinkDelay[0], want0)
	}
	if rep.SinkDelay[0] != rep.SinkDelay[1] {
		t.Error("symmetric sinks should have equal delay")
	}
	want2 := m.WireDelay(6, 20)
	if math.Abs(rep.SinkDelay[2]-want2) > 1e-12 {
		t.Errorf("sink 2 delay = %v, want %v", rep.SinkDelay[2], want2)
	}
	if math.Abs(rep.GlobalSkew-math.Abs(want0-want2)) > 1e-12 {
		t.Errorf("global skew = %v", rep.GlobalSkew)
	}
	if rep.GroupSkew[0] != 0 || rep.GroupSkew[1] != 0 {
		t.Errorf("group skews = %v", rep.GroupSkew)
	}
	if rep.MaxGroupSkew != 0 {
		t.Errorf("max group skew = %v", rep.MaxGroupSkew)
	}
	if rep.TotalWire != rep.TreeWire+rep.SourceWire {
		t.Error("total wire mismatch")
	}
}

func TestAnalyzeMatchesNodeBookkeeping(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)
	root, in := buildKnown(m)
	rep := Analyze(root, in, m, in.Source)
	// The independent evaluator must agree with the node Delay sets.
	for i := 0; i < root.Delay.Len(); i++ {
		g, iv := root.Delay.At(i)
		var lo, hi float64 = math.Inf(1), math.Inf(-1)
		for _, s := range in.Sinks {
			if s.Group != g {
				continue
			}
			lo = math.Min(lo, rep.SinkDelay[s.ID])
			hi = math.Max(hi, rep.SinkDelay[s.ID])
		}
		if math.Abs(lo-iv.Lo) > 1e-9 || math.Abs(hi-iv.Hi) > 1e-9 {
			t.Errorf("group %d: eval [%v,%v] vs node %v", g, lo, hi, iv)
		}
	}
}

// TestAnalyzeDelaysBitwise pins the pre-order-indexed capacitance memo
// against a pointer-keyed reference computing the same float operations in
// the same order: every sink delay must agree bit for bit on a routed
// grouped tree.
func TestAnalyzeDelaysBitwise(t *testing.T) {
	in := bench.Intermingled(bench.PowerLaw(3000, bench.PowerLawClusters, bench.PowerLawAlpha, 4), 4, 4)
	res, err := core.Build(in, core.Options{IntraSkewBound: 10})
	if err != nil {
		t.Fatal(err)
	}
	m := core.DefaultModel()
	caps := map[*ctree.Node]float64{}
	var capOf func(n *ctree.Node) float64
	capOf = func(n *ctree.Node) float64 {
		var c float64
		if n.IsLeaf() {
			c = n.Sink.CapFF
		} else {
			c = capOf(n.Left) + capOf(n.Right) + m.WireCap(n.EdgeL) + m.WireCap(n.EdgeR)
		}
		caps[n] = c
		return c
	}
	capOf(res.Root)
	want := make([]float64, len(in.Sinks))
	var walk func(n *ctree.Node, d float64)
	walk = func(n *ctree.Node, d float64) {
		if n.IsLeaf() {
			want[n.Sink.ID] = d
			return
		}
		walk(n.Left, d+m.WireDelay(n.EdgeL, caps[n.Left]))
		walk(n.Right, d+m.WireDelay(n.EdgeR, caps[n.Right]))
	}
	walk(res.Root, 0)

	rep := Analyze(res.Root, in, m, in.Source)
	for id, d := range rep.SinkDelay {
		if math.Float64bits(d) != math.Float64bits(want[id]) {
			t.Fatalf("sink %d delay %v, reference %v", id, d, want[id])
		}
	}
}

func TestCheckTreeAcceptsValid(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)
	root, in := buildKnown(m)
	if err := CheckTree(root, in); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
}

func TestCheckTreeDetectsViolations(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)

	root, in := buildKnown(m)
	root.EdgeL = -1
	if err := CheckTree(root, in); err == nil {
		t.Error("negative edge accepted")
	}

	root, in = buildKnown(m)
	root.EdgeR = 0.5 // shorter than the embedded distance to s2
	if err := CheckTree(root, in); err == nil {
		t.Error("edge shorter than embedding accepted")
	}

	root, in = buildKnown(m)
	root.Right = root.Left.Left // duplicates sink 0, drops sink 2
	if err := CheckTree(root, in); err == nil {
		t.Error("duplicated sink accepted")
	}
}

func TestPairSkews(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)
	root, in := buildKnown(m)
	rep := Analyze(root, in, m, in.Source)
	ps := rep.PairSkews(in)
	if len(ps) != in.NumGroups || len(ps[0]) != in.NumGroups {
		t.Fatalf("matrix shape %dx%d", len(ps), len(ps[0]))
	}
	// Diagonal: [−spread, +spread] = [0,0] for the zero-spread groups here.
	for g := 0; g < in.NumGroups; g++ {
		if ps[g][g][0] != -rep.GroupSkew[g] || ps[g][g][1] != rep.GroupSkew[g] {
			t.Errorf("diagonal %d: %v", g, ps[g][g])
		}
	}
	// Antisymmetry: range(i,j) = −reverse(range(j,i)).
	for i := 0; i < in.NumGroups; i++ {
		for j := 0; j < in.NumGroups; j++ {
			if ps[i][j][0] != -ps[j][i][1] || ps[i][j][1] != -ps[j][i][0] {
				t.Errorf("not antisymmetric at (%d,%d): %v vs %v", i, j, ps[i][j], ps[j][i])
			}
		}
	}
	// Known offset: group 1 delay − group 0 delay.
	want := rep.SinkDelay[2] - rep.SinkDelay[0]
	if math.Abs(ps[0][1][0]-want) > 1e-9 || math.Abs(ps[0][1][1]-want) > 1e-9 {
		t.Errorf("pair (0,1) = %v, want point %v", ps[0][1], want)
	}
}

// TestSeamSkew pins the seam metric on hand-built reports: only sink pairs
// of one group split across different parts count, the part holding both a
// group's extremes compares against the best *other* part, and degenerate
// inputs (single part, single-part groups, unreached sinks) contribute 0.
func TestSeamSkew(t *testing.T) {
	in := &ctree.Instance{
		Name:      "seams",
		NumGroups: 3,
		Sinks: []ctree.Sink{
			{ID: 0, Group: 0}, {ID: 1, Group: 0}, {ID: 2, Group: 0}, {ID: 3, Group: 0},
			{ID: 4, Group: 1}, {ID: 5, Group: 1},
			{ID: 6, Group: 2}, {ID: 7, Group: 2},
		},
	}
	rep := &Report{SinkDelay: []float64{
		// Group 0: extremes 100 and 190 both in part 0 (sinks 0, 1); part 1
		// holds 140 and 150 — the seam spread is 190−140 = 50, not 90.
		100, 190, 140, 150,
		// Group 1: split 10 vs 14 across parts — seam spread 4.
		10, 14,
		// Group 2: sink 7 unreached, leaving one reached sink — no seam.
		20, math.NaN(),
	}}
	parts := [][]int{{0, 1, 4, 6}, {2, 3, 5, 7}}
	perGroup, max := SeamSkew(rep, in, parts)
	if len(perGroup) != 3 {
		t.Fatalf("perGroup has %d entries, want 3", len(perGroup))
	}
	if got, want := perGroup[0], 50.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("group 0 seam %v, want %v (extremes share a part)", got, want)
	}
	if got, want := perGroup[1], 4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("group 1 seam %v, want %v", got, want)
	}
	if perGroup[2] != 0 {
		t.Errorf("group 2 seam %v, want 0 (no cross-part pair)", perGroup[2])
	}
	if max != 50 {
		t.Errorf("max seam %v, want 50", max)
	}
	// A single part has no seams at all.
	if _, m := SeamSkew(rep, in, [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}); m != 0 {
		t.Errorf("single part: max seam %v, want 0", m)
	}
}
