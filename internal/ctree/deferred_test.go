package ctree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rctree"
)

// deferredPair builds a deferred node over two leaves with a full split
// window for testing the deferral API.
func deferredPair(m rctree.Model) *Node {
	s0 := &Sink{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 10, Group: 0}
	s1 := &Sink{ID: 1, Loc: geom.Point{X: 100, Y: 0}, CapFF: 30, Group: 1}
	l0, l1 := NewLeaf(s0), NewLeaf(s1)
	d := geom.DistRR(l0.Region, l1.Region)
	n := &Node{ID: 2, Left: l0, Right: l1, Cap: l0.Cap + l1.Cap + m.WireCap(d)}
	def := NewDeferral(l0, l1, d, 0, d, geom.SDR(l0.Region, l1.Region, d, 0, d))
	n.Def = &def
	return n
}

func TestDeferredAccessors(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)
	n := deferredPair(m)

	lo, hi := n.SplitRange()
	if lo != 0 || hi != 100 {
		t.Fatalf("split range [%v,%v]", lo, hi)
	}
	if reg := n.ActiveRegion(); reg.IsEmpty() {
		t.Fatal("empty active region")
	}
	if got := n.Groups(); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("deferred groups %v, want the children's union [0 1]", got)
	}
}

func TestResolveCommitsConsistentState(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)
	n := deferredPair(m)
	n.Resolve(m, 40)
	if n.Def != nil {
		t.Fatal("still deferred")
	}
	if got := n.Groups(); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("resolved groups %v, want [0 1]", got)
	}
	if n.EdgeL != 40 || n.EdgeR != 60 {
		t.Fatalf("edges %v/%v", n.EdgeL, n.EdgeR)
	}
	if n.Region.IsEmpty() {
		t.Fatal("empty region after resolve")
	}
	// Cap was committed at deferral and must match a recompute.
	want := n.Cap
	n.Recompute(m)
	if math.Abs(n.Cap-want) > 1e-9 {
		t.Errorf("cap %v vs recomputed %v", want, n.Cap)
	}
	// Resolving again is a no-op.
	n.EdgeL = 41
	n.Resolve(m, 10)
	if n.EdgeL != 41 {
		t.Error("second resolve mutated node")
	}
}

func TestResolveClampsSplit(t *testing.T) {
	m := rctree.NewElmore(0.1, 0.02)
	n := deferredPair(m)
	narrow := NewDeferral(n.Left, n.Right, n.Def.D, 20, 70, n.Def.Region)
	n.Def = &narrow
	n.Resolve(m, 500)
	if n.EdgeL != 70 {
		t.Errorf("split not clamped: %v", n.EdgeL)
	}
	n2 := deferredPair(m)
	n2.Def = &narrow
	n2.Resolve(m, -3)
	if n2.EdgeL != 20 {
		t.Errorf("split not clamped low: %v", n2.EdgeL)
	}
}
