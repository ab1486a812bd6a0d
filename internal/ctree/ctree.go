// Package ctree defines the clock-routing problem instance (sinks, groups,
// source) and the merge-tree node representation shared by every router in
// this repository (DME, BST, EXT-BST, AST-DME, stitch baseline).
//
// A Node represents a subtree produced by bottom-up deferred merging. Until
// top-down embedding, a node's position is a locus (geom.Rect); the wire
// lengths of its two child edges, however, are committed at merge time and
// may exceed the geometric child distance (wire snaking). A merge that
// leaves its split open makes a deferred node, which holds a Deferral record
// until Resolve commits the split and drops it: only the roots of active
// (unmerged) subtrees are deferred, and a committed node holds no record.
//
// # Delay bookkeeping
//
// Each committed node carries, per sink group present in its subtree, the
// Interval of root-to-sink delays of that group's sinks (a zero intra-group
// skew constraint keeps each group's interval degenerate). The bookkeeping
// is a flat rctree.DelaySet — parallel group-id/interval slices sorted by
// group — rather than a map: merging two children is one linear pass over
// both sorted sets (rctree.MergeDelaysInto), lookups are binary searches,
// and iteration is always in ascending group order, so no map-iteration
// order can leak into results. Its group ids are the node's one group list.
// The flat sets also slab-allocate: routers that build millions of nodes
// back them with arena slices instead of one map (plus buckets) per node,
// which is where the bulk of a large route's allocations used to come from.
// Delay sets and Deferral records are never mutated once made — all paths
// build replacements — so leaves of one group share one interned set, nodes
// may share a record, and any code holding either may keep it.
package ctree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rctree"
)

// Sink is a clock sink (register / flip-flop clock pin).
type Sink struct {
	// ID is the index of the sink within its instance.
	ID int
	// Loc is the physical pin location.
	Loc geom.Point
	// CapFF is the sink input capacitance in fF.
	CapFF float64
	// Group is the associative-skew group this sink belongs to.
	Group int
}

// Instance is a complete associative-skew clock routing instance.
type Instance struct {
	// Name identifies the instance in reports (e.g. "r3").
	Name string
	// Sinks is the sink set; Sink.ID must equal the slice index.
	Sinks []Sink
	// Source is the clock source location.
	Source geom.Point
	// NumGroups is the number of sink groups; Sink.Group ∈ [0, NumGroups).
	NumGroups int
}

// Validate checks internal consistency of the instance.
func (in *Instance) Validate() error {
	if len(in.Sinks) == 0 {
		return fmt.Errorf("instance %q: no sinks", in.Name)
	}
	if in.NumGroups <= 0 {
		return fmt.Errorf("instance %q: NumGroups = %d", in.Name, in.NumGroups)
	}
	// Every group needs a sink. Checking that before sizing the per-group
	// table keeps a huge count from a file or the wire an error, not a
	// makeslice panic or a multi-gigabyte allocation.
	if in.NumGroups > len(in.Sinks) {
		return fmt.Errorf("instance %q: NumGroups = %d exceeds the %d sinks", in.Name, in.NumGroups, len(in.Sinks))
	}
	seen := make([]bool, in.NumGroups)
	for i, s := range in.Sinks {
		if s.ID != i {
			return fmt.Errorf("instance %q: sink %d has ID %d", in.Name, i, s.ID)
		}
		if s.Group < 0 || s.Group >= in.NumGroups {
			return fmt.Errorf("instance %q: sink %d group %d out of range", in.Name, i, s.Group)
		}
		if s.CapFF < 0 {
			return fmt.Errorf("instance %q: sink %d negative cap", in.Name, i)
		}
		seen[s.Group] = true
	}
	for g, ok := range seen {
		if !ok {
			return fmt.Errorf("instance %q: group %d has no sinks", in.Name, g)
		}
	}
	return nil
}

// SinkList points at the sinks with the given ids, in that order, or at
// every sink in ID order when ids is nil: the sink list a sub-build routes
// (core.BuildSubtree), whose leaves then point into in.
func (in *Instance) SinkList(ids []int) []*Sink {
	if ids == nil {
		l := make([]*Sink, len(in.Sinks))
		for i := range l {
			l[i] = &in.Sinks[i]
		}
		return l
	}
	l := make([]*Sink, len(ids))
	for i, id := range ids {
		l[i] = &in.Sinks[id]
	}
	return l
}

// GroupSizes returns the number of sinks per group.
func (in *Instance) GroupSizes() []int {
	n := make([]int, in.NumGroups)
	for _, s := range in.Sinks {
		n[s.Group]++
	}
	return n
}

// Side selects one of a node's two child edges.
type Side int

// Child edge selectors.
const (
	SideL Side = iota
	SideR
)

// EdgeRef identifies a tree edge as (parent node, side). It is used as a
// wire-snaking "handle": elongating the referenced edge delays exactly the
// sinks below it.
type EdgeRef struct {
	Parent *Node
	Side   Side
}

// Len returns the committed length of the referenced edge.
func (e EdgeRef) Len() float64 {
	if e.Side == SideL {
		return e.Parent.EdgeL
	}
	return e.Parent.EdgeR
}

// Child returns the node below the referenced edge.
func (e EdgeRef) Child() *Node {
	if e.Side == SideL {
		return e.Parent.Left
	}
	return e.Parent.Right
}

// AddLen elongates the referenced edge by g ≥ 0 (wire snaking).
func (e EdgeRef) AddLen(g float64) {
	if e.Side == SideL {
		e.Parent.EdgeL += g
	} else {
		e.Parent.EdgeR += g
	}
}

// Node is a merge-tree node: a leaf wraps a single sink; an internal node
// records the merge of its two children with committed edge lengths.
type Node struct {
	// ID is unique within one routing run (leaves use sink IDs).
	ID int
	// Sink is non-nil for leaves.
	Sink *Sink
	// Left and Right are the merged children (nil for leaves).
	Left, Right *Node
	// EdgeL and EdgeR are the committed wire lengths from this node to each
	// child; they include snaking and thus may exceed the geometric distance.
	EdgeL, EdgeR float64
	// Region is the feasible placement locus of this node.
	Region geom.Rect
	// Cap is the total downstream capacitance (fF): sink caps plus wire cap
	// of all edges strictly below this node.
	Cap float64
	// Delay holds, for each sink group present in the subtree, in ascending
	// group order, the interval of root-to-sink delays of that group's sinks
	// (ps). Its group ids are a committed node's group list.
	Delay rctree.DelaySet
	// Loc is the embedded location; valid once Placed is true.
	Loc    geom.UV
	Placed bool
	// Def is a deferred node's open split, nil once the node is committed.
	// While it is set, EdgeL/EdgeR, Region and Delay are not yet valid.
	Def *Deferral
}

// Deferral is a deferred node's open split of the committed merge wire D
// between its two child edges: the node's feasible placement locus is the
// octagonal Region (a shortest-distance region), every point q of which
// corresponds to the split e = dist(q, Left.Region) ∈ [ELo, EHi]. Groups is
// the node's group list, the ascending union of its committed children's.
// NewDeferral makes a record and Node.Resolve drops it; nothing mutates one
// in between, so a Frozen snapshot and its thaws share theirs.
type Deferral struct {
	D        float64
	ELo, EHi float64
	Region   geom.Octagon
	Groups   []int32
}

// NewLeaf builds the leaf node for a sink, in the sink's group.
func NewLeaf(s *Sink) *Node {
	n := Leaf(s, rctree.PointDelaySet(s.Group, rctree.PointInterval(0)))
	return &n
}

// Leaf is the leaf node for sink s whose delay set is {g: [+0, +0]} for
// its group g. Builders that make many leaves pass one interned delay set
// per group, which that group's leaves share: core's node arena, and the
// wire decoder's compact leaf records.
func Leaf(s *Sink, delay rctree.DelaySet) Node {
	return Node{ID: s.ID, Sink: s, Region: geom.RectFromPoint(s.Loc), Cap: s.CapFF, Delay: delay}
}

// IsCanonicalLeaf reports whether n is bitwise a leaf that Leaf makes from
// its sink: its delay set {g: [+0, +0]} for one group g, and every other
// field as Leaf sets it, so n can be rebuilt from its sink and g alone.
// Every field of Node is checked here (TestCanonicalLeafSeesEveryField).
func (n *Node) IsCanonicalLeaf() bool {
	s := n.Sink
	if s == nil || n.ID != s.ID || n.Left != nil || n.Right != nil || n.Placed || n.Def != nil ||
		len(n.Delay.Groups) != 1 || len(n.Delay.Ivs) != 1 {
		return false
	}
	want := geom.RectFromPoint(s.Loc)
	var zero uint64
	for _, f := range [...]float64{n.EdgeL, n.EdgeR, n.Loc.U, n.Loc.V, n.Delay.Ivs[0].Lo, n.Delay.Ivs[0].Hi} {
		zero |= math.Float64bits(f)
	}
	return zero == 0 && sameBits(n.Cap, s.CapFF) &&
		sameBits(n.Region.ULo, want.ULo) && sameBits(n.Region.UHi, want.UHi) &&
		sameBits(n.Region.VLo, want.VLo) && sameBits(n.Region.VHi, want.VHi)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// IsLeaf reports whether the node wraps a sink.
func (n *Node) IsLeaf() bool { return n.Sink != nil }

// ActiveRegion returns the node's current feasible placement locus: the
// octagonal deferred region while the split is open, otherwise the committed
// rectangle.
func (n *Node) ActiveRegion() geom.Octagon {
	if n.Def != nil {
		return n.Def.Region
	}
	return geom.OctFromRect(n.Region)
}

// Groups returns the sink groups present in the subtree, ascending: its
// delay set's, or a deferred node's record's until Resolve makes the set.
func (n *Node) Groups() []int32 {
	if n.Def != nil {
		return n.Def.Groups
	}
	return n.Delay.Groups
}

// NewDeferral returns the record of a node over committed children l and r
// whose merge wire d splits at e ∈ [eLo, eHi] over the locus region. Its
// group list is the union of the children's: one child's own list when it
// covers the other's, as it always does in single-group runs.
func NewDeferral(l, r *Node, d, eLo, eHi float64, region geom.Octagon) Deferral {
	a, b := l.Delay.Groups, r.Delay.Groups
	var buf [16]int32
	groups := b
	if u := AppendUnionGroups(buf[:0], a, b); len(u) == len(a) {
		groups = a // the union covers a and is as long: it is a
	} else if len(u) != len(b) {
		groups = append([]int32(nil), u...)
	}
	return Deferral{D: d, ELo: eLo, EHi: eHi, Region: region, Groups: groups}
}

// Resolve pins a deferred node's split at e ∈ [ELo, EHi] (clamped),
// committing the child edge lengths, the placement rectangle and the exact
// per-group delay set, and drops the node's Deferral. Resolving a committed
// node is a no-op.
func (n *Node) Resolve(m rctree.Model, e float64) {
	s := n.Def
	if s == nil {
		return
	}
	if e < s.ELo {
		e = s.ELo
	}
	if e > s.EHi {
		e = s.EHi
	}
	n.EdgeL, n.EdgeR = e, s.D-e
	n.Region = geom.MergeLocus(n.Left.Region, n.Right.Region, n.EdgeL, n.EdgeR)
	n.Delay = mergedDelay(m, n, len(s.Groups))
	n.Def = nil
}

// SplitRange returns the feasible split window ([0,0] for committed nodes).
func (n *Node) SplitRange() (lo, hi float64) {
	if n.Def == nil {
		return 0, 0
	}
	return n.Def.ELo, n.Def.EHi
}

// mergedDelay computes a node's per-group delay set, of k groups, from its
// committed children and edges.
func mergedDelay(m rctree.Model, n *Node, k int) rctree.DelaySet {
	d := rctree.MakeDelaySet(k)
	wl := m.WireDelay(n.EdgeL, n.Left.Cap)
	wr := m.WireDelay(n.EdgeR, n.Right.Cap)
	rctree.MergeDelaysInto(&d, n.Left.Delay, wl, n.Right.Delay, wr)
	return d
}

// HasGroup reports whether the ascending group list gs holds group g.
func HasGroup(gs []int32, g int) bool {
	_, ok := slices.BinarySearch(gs, int32(g))
	return ok
}

// PureGroup returns (g, true) when the group list gs is the single group g:
// every sink of its subtree belongs to g.
func PureGroup(gs []int32) (int, bool) {
	if len(gs) == 1 {
		return int(gs[0]), true
	}
	return -1, false
}

// OverallDelay returns the interval covering all sink delays of the subtree.
func (n *Node) OverallDelay() rctree.Interval {
	return n.Delay.Overall()
}

// AppendUnionGroups appends the sorted union of a and b to dst, letting hot
// callers reuse a scratch buffer.
func AppendUnionGroups(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// SharesGroup reports whether two ascending group lists intersect, without
// building the intersection: merge keys test it from concurrent pairing
// goroutines on every candidate pair, and every merge classifies itself
// with it.
func SharesGroup(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Wirelength returns the total committed wirelength of the subtree
// (excluding any source-to-root connection).
func (n *Node) Wirelength() float64 {
	if n == nil || n.IsLeaf() {
		return 0
	}
	return n.EdgeL + n.EdgeR + n.Left.Wirelength() + n.Right.Wirelength()
}

// CountNodes returns the number of nodes in the subtree.
func (n *Node) CountNodes() int {
	if n == nil {
		return 0
	}
	return 1 + n.Left.CountNodes() + n.Right.CountNodes()
}

// Visit walks the subtree pre-order.
func (n *Node) Visit(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	n.Left.Visit(f)
	n.Right.Visit(f)
}

// Sinks appends all sinks of the subtree to dst and returns it.
func (n *Node) Sinks(dst []*Sink) []*Sink {
	if n == nil {
		return dst
	}
	if n.IsLeaf() {
		return append(dst, n.Sink)
	}
	return n.Right.Sinks(n.Left.Sinks(dst))
}

// Recompute rebuilds Cap and Delay for the subtree bottom-up from the
// committed edge lengths, using the given delay model. It is called after
// structural modifications such as wire snaking on an interior edge, where
// the added wire capacitance perturbs delays along shared ancestor paths.
// A leaf keeps its delay set when it already is {g: [+0, +0]} for its
// sink's group g, and gets that set otherwise, as a leaf relabelled to
// another group does.
func (n *Node) Recompute(m rctree.Model) {
	if n.IsLeaf() {
		n.Cap = n.Sink.CapFF
		if !isLeafDelay(n.Delay, n.Sink.Group) {
			n.Delay = rctree.PointDelaySet(n.Sink.Group, rctree.PointInterval(0))
		}
		return
	}
	n.Left.Recompute(m)
	n.Right.Recompute(m)
	n.Cap = n.Left.Cap + n.Right.Cap + m.WireCap(n.EdgeL) + m.WireCap(n.EdgeR)
	n.Delay = mergedDelay(m, n, n.Delay.Len())
}

// isLeafDelay reports whether d is bitwise {g: [+0, +0]}, the delay set a
// leaf of group g has, which Recompute then keeps rather than rebuilds.
func isLeafDelay(d rctree.DelaySet, g int) bool {
	return len(d.Groups) == 1 && len(d.Ivs) == 1 && d.Groups[0] == int32(g) &&
		math.Float64bits(d.Ivs[0].Lo)|math.Float64bits(d.Ivs[0].Hi) == 0
}

// Embed performs the DME top-down embedding: the subtree root is placed at
// the point of its region nearest to `toward` (typically the clock source or
// the already-placed parent), and children are placed recursively toward
// their parent's location. Committed edge lengths are untouched; they remain
// ≥ the embedded geometric distances by construction.
func (n *Node) Embed(toward geom.UV) {
	n.Loc = n.Region.ClosestPointTo(toward)
	n.Placed = true
	if n.IsLeaf() {
		return
	}
	n.Left.Embed(n.Loc)
	n.Right.Embed(n.Loc)
}
