package dme

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
)

var model = rctree.NewElmore(0.1, 0.02)

func TestExactZeroSkew(t *testing.T) {
	for _, n := range []int{2, 5, 30, 150} {
		for _, seed := range []int64{1, 2, 3} {
			in := bench.Small(n, seed)
			res, err := Build(in, model)
			if err != nil {
				t.Fatal(err)
			}
			delays := res.SinkDelays(model, n)
			if len(delays) != n {
				t.Fatalf("n=%d: %d delays", n, len(delays))
			}
			if skew := res.Skew(model, n); skew > 1e-6*(1+delays[0]) {
				t.Errorf("n=%d seed=%d: skew = %v ps", n, seed, skew)
			}
		}
	}
}

func TestLinearModelZeroSkew(t *testing.T) {
	in := bench.Small(50, 4)
	res, err := Build(in, rctree.Linear{})
	if err != nil {
		t.Fatal(err)
	}
	if skew := res.Skew(rctree.Linear{}, 50); skew > 1e-9 {
		t.Errorf("linear skew = %v", skew)
	}
}

func TestDelayBookkeepingMatchesEvaluation(t *testing.T) {
	in := bench.Small(80, 7)
	res, err := Build(in, model)
	if err != nil {
		t.Fatal(err)
	}
	delays := res.SinkDelays(model, 80)
	for _, d := range delays {
		if math.Abs(d-res.Root.Delay) > 1e-6*(1+d) {
			t.Fatalf("evaluated delay %v != bookkept %v", d, res.Root.Delay)
		}
	}
}

func TestEmbeddingRespectsEdgeLengths(t *testing.T) {
	in := bench.Small(60, 9)
	res, err := Build(in, model)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Sink != nil {
			if d := geom.DistUV(n.Loc, geom.ToUV(n.Sink.Loc)); d > 1e-9 {
				t.Fatalf("sink %d off pin by %v", n.Sink.ID, d)
			}
			return
		}
		if d := geom.DistUV(n.Loc, n.Left.Loc); d > n.EdgeL+1e-6 {
			t.Fatalf("left edge %v < embedded %v", n.EdgeL, d)
		}
		if d := geom.DistUV(n.Loc, n.Right.Loc); d > n.EdgeR+1e-6 {
			t.Fatalf("right edge %v < embedded %v", n.EdgeR, d)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(res.Root)
}

// TestDifferentialAgainstCore cross-checks the general engine's degenerate
// zero-skew mode against this independent implementation: both must achieve
// zero skew, and their wirelengths must agree within the tolerance expected
// from their different merge orders.
func TestDifferentialAgainstCore(t *testing.T) {
	for _, seed := range []int64{1, 5, 11, 23} {
		in := bench.Small(120, seed)
		classic, err := Build(in, model)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := core.ZST(in, core.Options{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if skew := classic.Skew(model, len(in.Sinks)); skew > 1e-6*classic.Root.Delay {
			t.Errorf("seed %d: classic skew %v", seed, skew)
		}
		ratio := engine.Wirelength / classic.Wirelength
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("seed %d: engine wire %v vs classic %v (ratio %.3f) — implementations diverged",
				seed, engine.Wirelength, classic.Wirelength, ratio)
		}
	}
}

func TestSingleSink(t *testing.T) {
	in := bench.Small(1, 1)
	res, err := Build(in, model)
	if err != nil {
		t.Fatal(err)
	}
	want := geom.Dist(in.Sinks[0].Loc, in.Source)
	if math.Abs(res.Wirelength-want) > 1e-9 {
		t.Errorf("wire = %v, want %v", res.Wirelength, want)
	}
}

func TestInvalidRejected(t *testing.T) {
	in := bench.Small(5, 1)
	in.NumGroups = 0
	if _, err := Build(in, model); err == nil {
		t.Error("invalid instance accepted")
	}
}

// TestGridMatchesScanNN: the spatial-grid nearest-neighbor path (engaged
// above gridThreshold in Build) must produce exactly the tree the linear
// scan produces, on an instance large enough for the grid to matter.
func TestGridMatchesScanNN(t *testing.T) {
	in := bench.Small(gridThreshold+37, 17)
	mk := func(useGrid bool) *Node {
		active := make([]*Node, 0, len(in.Sinks))
		for i := range in.Sinks {
			s := &in.Sinks[i]
			active = append(active, &Node{
				Seg:  geom.RectFromPoint(s.Loc),
				Cap:  s.CapFF,
				Sink: s,
			})
		}
		return mergeAll(active, model, useGrid)
	}
	scanRoot := mk(false)
	gridRoot := mk(true)
	if sw, gw := wirelength(scanRoot), wirelength(gridRoot); sw != gw {
		t.Errorf("wirelength %v (scan) != %v (grid)", sw, gw)
	}
	// The whole merge structure must match, not just the totals.
	var walk func(a, b *Node)
	walk = func(a, b *Node) {
		if (a.Sink == nil) != (b.Sink == nil) {
			t.Fatal("tree shapes differ")
		}
		if a.Sink != nil {
			if a.Sink.ID != b.Sink.ID {
				t.Fatalf("leaf %d (scan) != %d (grid)", a.Sink.ID, b.Sink.ID)
			}
			return
		}
		if a.Seg != b.Seg || a.EdgeL != b.EdgeL || a.EdgeR != b.EdgeR {
			t.Fatalf("node mismatch: %+v vs %+v", a.Seg, b.Seg)
		}
		walk(a.Left, b.Left)
		walk(a.Right, b.Right)
	}
	walk(scanRoot, gridRoot)
}

// flatZSTInput is the flat-zst benchmark's input as internal/core's tests
// draw it: 10,000 power-law sinks with loads drawn from seed 1.
func flatZSTInput() *ctree.Instance {
	in := bench.PowerLaw(10000, bench.PowerLawClusters, bench.PowerLawAlpha, 1100)
	r := rand.New(rand.NewSource(1))
	for i := range in.Sinks {
		in.Sinks[i].CapFF = 5 + r.Float64()*45
	}
	return in
}

// TestFlatZSTReferenceWire pins the wirelength of this package's tree over
// the flat-zst benchmark's input, bit for bit: it is the denominator of that
// benchmark's wire_ratio, and the only at-scale build whose single queries
// file the spatial index anew, so a change to the index's upkeep that moved
// an answer would move it.
func TestFlatZSTReferenceWire(t *testing.T) {
	res, err := Build(flatZSTInput(), model)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x417bc14a9fc1be23
	if got := math.Float64bits(res.Wirelength); got != want {
		t.Errorf("wirelength %v (%#x), want %v (%#x)", res.Wirelength, got, math.Float64frombits(want), uint64(want))
	}
}
