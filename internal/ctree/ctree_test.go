package ctree

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

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
		a, b, union, shared []int32
	}{
		{[]int32{0}, []int32{1}, []int32{0, 1}, nil},
		{[]int32{0, 2}, []int32{1, 2, 3}, []int32{0, 1, 2, 3}, []int32{2}},
		{[]int32{1, 2}, []int32{1, 2}, []int32{1, 2}, []int32{1, 2}},
		{nil, []int32{5}, []int32{5}, nil},
	}
	for _, c := range cases {
		if got := AppendUnionGroups(nil, c.a, c.b); !reflect.DeepEqual(got, c.union) {
			t.Errorf("AppendUnionGroups(nil,%v,%v) = %v, want %v", c.a, c.b, got, c.union)
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
		Region: geom.MergeLocus(l0.Region, l1.Region, 5, 5)}
	root := &Node{ID: 4, Left: a, Right: l2, EdgeL: 4, EdgeR: 4,
		Region: geom.MergeLocus(a.Region, l2.Region, 4, 4)}
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

// TestRecomputeKeepsLeafDelaySets: Recompute keeps a leaf's delay set when
// it is bitwise {g: [+0, +0]} for the sink's group g, so recomputing a leaf
// allocates nothing and a subtree's recompute keeps its leaves' sets, and
// it gives a leaf whose sink moved to another group, as the stitch
// baseline's leaves do, or whose set is not bitwise that, a fresh one.
func TestRecomputeKeepsLeafDelaySets(t *testing.T) {
	var m rctree.Model = rctree.NewElmore(0.03, 0.02)
	root, sinks := buildTwoLevel(m)
	leaf := root.Left.Left
	kept := leaf.Delay
	if allocs := testing.AllocsPerRun(20, func() { leaf.Recompute(m) }); allocs != 0 {
		t.Errorf("Recompute of a leaf made %v allocations, want 0", allocs)
	}
	root.Recompute(m)
	if &leaf.Delay.Groups[0] != &kept.Groups[0] || &leaf.Delay.Ivs[0] != &kept.Ivs[0] {
		t.Error("Recompute rebuilt a leaf's {g: [+0, +0]} delay set")
	}
	sinks[0].Group = 1
	leaf.Recompute(m)
	if g, _ := PureGroup(leaf.Delay.Groups); g != 1 || &leaf.Delay.Groups[0] == &kept.Groups[0] {
		t.Errorf("relabelled leaf keeps groups %v", leaf.Delay.Groups)
	}
	negZero := rctree.PointDelaySet(1, rctree.PointInterval(math.Copysign(0, -1)))
	leaf.Delay = negZero
	leaf.Recompute(m)
	if iv := leaf.Delay.Ivs[0]; math.Float64bits(iv.Lo)|math.Float64bits(iv.Hi) != 0 {
		t.Errorf("leaf delay %v after Recompute, want [+0, +0]", iv)
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
	if !HasGroup(root.Delay.Groups, 0) || !HasGroup(root.Delay.Groups, 1) || HasGroup(root.Delay.Groups, 2) {
		t.Error("HasGroup wrong")
	}
	if _, pure := PureGroup(root.Delay.Groups); pure {
		t.Error("root should not be pure")
	}
	if g, pure := PureGroup(root.Left.Delay.Groups); !pure || g != 0 {
		t.Error("left subtree should be pure group 0")
	}
	got := root.Sinks(nil)
	if len(got) != len(sinks) {
		t.Errorf("Sinks len = %d", len(got))
	}
}

// eachScalar calls f on every scalar reachable from v through its struct
// fields and slice elements, and on every slice itself, with its path.
func eachScalar(v reflect.Value, path string, f func(v reflect.Value, path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachScalar(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachScalar(v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
		f(v, path)
	default:
		f(v, path)
	}
}

// TestCanonicalLeafSeesEveryField: a leaf NewLeaf makes is canonical, and
// changing any one field of it — a float's sign bit, an int by one, a bool,
// a pointer to a fresh value (a Deferral record among them), a slice's
// length — makes it not, save its group id, which a compact record carries
// beside the sink id: a field added to Node fails here until
// IsCanonicalLeaf checks it, so a compact wire leaf can never drop it.
func TestCanonicalLeafSeesEveryField(t *testing.T) {
	s := sink(7, 3, -2, 1.5, 2)
	if !NewLeaf(&s).IsCanonicalLeaf() {
		t.Fatal("NewLeaf's leaf is not canonical")
	}
	sites := 0
	eachScalar(reflect.ValueOf(NewLeaf(&s)).Elem(), "Node", func(reflect.Value, string) { sites++ })
	for i := 0; i < sites; i++ {
		n := NewLeaf(&s)
		site := -1
		eachScalar(reflect.ValueOf(n).Elem(), "Node", func(v reflect.Value, path string) {
			site++
			if site != i {
				return
			}
			switch v.Kind() {
			case reflect.Float64:
				v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1<<63))
			case reflect.Int, reflect.Int32:
				v.SetInt(v.Int() + 1)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Pointer:
				v.Set(reflect.New(v.Type().Elem()))
			case reflect.Slice:
				v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			default:
				t.Fatalf("%s: no change for a %s", path, v.Kind())
			}
			if n.IsCanonicalLeaf() && path != "Node.Delay.Groups[0]" {
				t.Errorf("%s changed, yet the leaf is still canonical", path)
			}
		})
	}
}

// TestNodeSize pins the node's footprint on 64-bit platforms: every build,
// thaw and decode allocates 2n − 1 nodes, and a committed node carries one
// group list (its delay set's) and one pointer for deferral state.
func TestNodeSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Node{}); got > 168 {
		t.Errorf("ctree.Node is %d bytes, want at most 168", got)
	}
}
