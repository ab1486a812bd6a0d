package ctree

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/rctree"
)

func sink(id int, x, y, cap float64, group int) Sink {
	return Sink{ID: id, Loc: geom.Point{X: x, Y: y}, CapFF: cap, Group: group}
}

func TestInstanceValidate(t *testing.T) {
	ok := Instance{
		Name:      "ok",
		Sinks:     []Sink{sink(0, 0, 0, 1, 0), sink(1, 1, 1, 1, 1)},
		NumGroups: 2,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []Instance{
		{Name: "empty", NumGroups: 1},
		{Name: "badid", Sinks: []Sink{sink(5, 0, 0, 1, 0)}, NumGroups: 1},
		{Name: "badgroup", Sinks: []Sink{sink(0, 0, 0, 1, 3)}, NumGroups: 2},
		{Name: "negcap", Sinks: []Sink{sink(0, 0, 0, -1, 0)}, NumGroups: 1},
		{Name: "emptygroup", Sinks: []Sink{sink(0, 0, 0, 1, 0)}, NumGroups: 2},
		// A count too large to allocate a table for must be an error, not
		// a makeslice panic.
		{Name: "hugegroups", Sinks: []Sink{sink(0, 0, 0, 1, 0)}, NumGroups: math.MaxInt},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("instance %q accepted", in.Name)
		}
	}
}

func TestGroupSizes(t *testing.T) {
	in := Instance{
		Sinks:     []Sink{sink(0, 0, 0, 1, 0), sink(1, 1, 1, 1, 1), sink(2, 2, 2, 1, 1)},
		NumGroups: 2,
	}
	if got := in.GroupSizes(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("GroupSizes = %v", got)
	}
}

func TestUnionSharedGroups(t *testing.T) {
	cases := []struct {
		a, b, union, shared []int
	}{
		{[]int{0}, []int{1}, []int{0, 1}, nil},
		{[]int{0, 2}, []int{1, 2, 3}, []int{0, 1, 2, 3}, []int{2}},
		{[]int{1, 2}, []int{1, 2}, []int{1, 2}, []int{1, 2}},
		{nil, []int{5}, []int{5}, nil},
	}
	for _, c := range cases {
		if got := UnionGroups(c.a, c.b); !reflect.DeepEqual(got, c.union) {
			t.Errorf("UnionGroups(%v,%v) = %v, want %v", c.a, c.b, got, c.union)
		}
		if got := SharesGroup(c.a, c.b); got != (len(c.shared) > 0) {
			t.Errorf("SharesGroup(%v,%v) = %v, want %v", c.a, c.b, got, len(c.shared) > 0)
		}
	}
}

// buildTwoLevel constructs ((s0,s1),(s2)) manually with the given edges.
func buildTwoLevel(m rctree.Model) (*Node, []*Sink) {
	s0 := &Sink{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 10, Group: 0}
	s1 := &Sink{ID: 1, Loc: geom.Point{X: 10, Y: 0}, CapFF: 10, Group: 0}
	s2 := &Sink{ID: 2, Loc: geom.Point{X: 5, Y: 8}, CapFF: 20, Group: 1}
	l0, l1, l2 := NewLeaf(s0), NewLeaf(s1), NewLeaf(s2)
	a := &Node{ID: 3, Left: l0, Right: l1, EdgeL: 5, EdgeR: 5,
		Groups: []int{0}, Region: geom.MergeLocus(l0.Region, l1.Region, 5, 5)}
	root := &Node{ID: 4, Left: a, Right: l2, EdgeL: 4, EdgeR: 4,
		Groups: []int{0, 1}, Region: geom.MergeLocus(a.Region, l2.Region, 4, 4)}
	root.Recompute(m)
	return root, []*Sink{s0, s1, s2}
}

func TestRecompute(t *testing.T) {
	m := rctree.NewElmore(0.03, 0.02)
	root, _ := buildTwoLevel(m)
	wantCap := 10 + 10 + 20 + m.WireCap(5+5+4+4)
	if math.Abs(root.Cap-wantCap) > 1e-9 {
		t.Errorf("root cap = %v, want %v", root.Cap, wantCap)
	}
	// Group 0 delay: wire(4, capA) + wire(5, 10); symmetric edges → point interval.
	capA := 20 + m.WireCap(10)
	want0 := m.WireDelay(4, capA) + m.WireDelay(5, 10)
	iv0, _ := root.Delay.Get(0)
	if iv0.Width() > 1e-12 || math.Abs(iv0.Lo-want0) > 1e-9 {
		t.Errorf("group 0 delay = %v, want point %v", iv0, want0)
	}
	want1 := m.WireDelay(4, 20.0)
	if iv1, _ := root.Delay.Get(1); math.Abs(iv1.Lo-want1) > 1e-9 || iv1.Width() > 1e-12 {
		t.Errorf("group 1 delay = %v, want point %v", iv1, want1)
	}
	if root.Wirelength() != 18 {
		t.Errorf("wirelength = %v, want 18", root.Wirelength())
	}
	if root.CountNodes() != 5 {
		t.Errorf("CountNodes = %v", root.CountNodes())
	}
}

func TestSnakeHandleChangesOnlyThatGroupPlusUpstreamCap(t *testing.T) {
	m := rctree.NewElmore(0.03, 0.02)
	root, _ := buildTwoLevel(m)
	before0, _ := root.Delay.Get(0)
	before1, _ := root.Delay.Get(1)
	// Snake the edge to sink 2 (the pure group-1 child of the root).
	h := EdgeRef{Parent: root, Side: SideR}
	h.AddLen(3)
	root.Recompute(m)
	after1, _ := root.Delay.Get(1)
	if after1.Lo <= before1.Lo {
		t.Errorf("group 1 delay should increase: %v -> %v", before1, after1)
	}
	// Group 0 is unaffected: the snaked edge is not on its path and the extra
	// cap sits below the root (no shared ancestor edge inside the subtree).
	after0, _ := root.Delay.Get(0)
	if math.Abs(after0.Lo-before0.Lo) > 1e-12 {
		t.Errorf("group 0 delay moved: %v -> %v", before0, after0)
	}
}

func TestEdgeRefAccessors(t *testing.T) {
	m := rctree.Linear{}
	root, _ := buildTwoLevel(m)
	l := EdgeRef{Parent: root, Side: SideL}
	r := EdgeRef{Parent: root, Side: SideR}
	if l.Len() != 4 || r.Len() != 4 {
		t.Errorf("edge lengths %v %v", l.Len(), r.Len())
	}
	if l.Child() != root.Left || r.Child() != root.Right {
		t.Error("child accessors wrong")
	}
	l.AddLen(2)
	if root.EdgeL != 6 {
		t.Errorf("AddLen failed: %v", root.EdgeL)
	}
}

func TestEmbedPlacesWithinRegionsAndDistances(t *testing.T) {
	m := rctree.NewElmore(0.03, 0.02)
	root, _ := buildTwoLevel(m)
	src := geom.ToUV(geom.Point{X: 5, Y: 100})
	root.Embed(src)
	root.Visit(func(n *Node) {
		if !n.Placed {
			t.Fatal("node not placed")
		}
		if !n.Region.Contains(n.Loc) {
			t.Fatalf("node %d placed outside region", n.ID)
		}
		if n.IsLeaf() {
			want := geom.ToUV(n.Sink.Loc)
			if geom.DistUV(n.Loc, want) > 1e-9 {
				t.Fatalf("leaf %d not at sink", n.ID)
			}
			return
		}
		if d := geom.DistUV(n.Loc, n.Left.Loc); d > n.EdgeL+1e-9 {
			t.Fatalf("node %d left edge %v shorter than placement distance %v", n.ID, n.EdgeL, d)
		}
		if d := geom.DistUV(n.Loc, n.Right.Loc); d > n.EdgeR+1e-9 {
			t.Fatalf("node %d right edge %v shorter than placement distance %v", n.ID, n.EdgeR, d)
		}
	})
}

func TestOverallDelayAndQueries(t *testing.T) {
	m := rctree.NewElmore(0.03, 0.02)
	root, sinks := buildTwoLevel(m)
	all := root.OverallDelay()
	for i := 0; i < root.Delay.Len(); i++ {
		g, iv := root.Delay.At(i)
		if iv.Lo < all.Lo-1e-12 || iv.Hi > all.Hi+1e-12 {
			t.Errorf("group %d interval %v outside overall %v", g, iv, all)
		}
	}
	if !root.HasGroup(0) || !root.HasGroup(1) || root.HasGroup(2) {
		t.Error("HasGroup wrong")
	}
	if _, pure := root.PureGroup(); pure {
		t.Error("root should not be pure")
	}
	if g, pure := root.Left.PureGroup(); !pure || g != 0 {
		t.Error("left subtree should be pure group 0")
	}
	got := root.Sinks(nil)
	if len(got) != len(sinks) {
		t.Errorf("Sinks len = %d", len(got))
	}
}
