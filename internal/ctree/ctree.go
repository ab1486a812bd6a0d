// Package ctree defines the clock-routing problem instance (sinks, groups,
// source) and the merge-tree node representation shared by every router in
// this repository (DME, BST, EXT-BST, AST-DME, stitch baseline).
//
// A Node represents a subtree produced by bottom-up deferred merging. Until
// top-down embedding, a node's position is a locus (geom.Rect); the wire
// lengths of its two child edges, however, are committed at merge time and
// may exceed the geometric child distance (wire snaking).
//
// # Delay bookkeeping
//
// Each node carries, per sink group present in its subtree, the Interval of
// root-to-sink delays of that group's sinks (a zero intra-group skew
// constraint keeps each group's interval degenerate). The bookkeeping is a
// flat rctree.DelaySet — parallel group-id/interval slices sorted by group —
// rather than a map: merging two children is one linear pass over both
// sorted sets (rctree.MergeDelaysInto), lookups are binary searches, and
// iteration is always in ascending group order, so no map-iteration order
// can leak into results. The flat sets also slab-allocate: routers that
// build millions of nodes back them with arena slices instead of one map
// (plus buckets) per node, which is where the bulk of a large route's
// allocations used to come from. Delay sets are never mutated in place once
// committed — all paths build replacements — so leaves of one group may
// share one interned set, and any code holding a DelaySet may keep it
// across merges.
package ctree

import (
	"fmt"
	"sort"

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
	// Groups lists, sorted ascending, the sink groups present in the subtree.
	Groups []int
	// Delay holds, for each group in Groups, the interval of root-to-sink
	// delays of that group's sinks (ps), as a flat group-sorted set whose
	// group ids mirror Groups exactly.
	Delay rctree.DelaySet
	// Handles maps a group to the snaking handle edge for that group, when
	// one exists: the highest edge in the subtree below which lie exactly the
	// subtree's sinks of that group.
	Handles map[int]EdgeRef
	// Loc is the embedded location; valid once Placed is true.
	Loc    geom.UV
	Placed bool

	// Deferred marks a node whose split of the committed merge wire DefD
	// between its two child edges is not yet pinned: the node's feasible
	// placement locus is the octagonal DefRegion (a shortest-distance
	// region), every point q of which corresponds to the split
	// e = dist(q, Left.Region) ∈ [DefELo, DefEHi]. EdgeL/EdgeR, Region and
	// Delay become valid only after Resolve. Only the roots of active
	// (unmerged) subtrees are ever deferred.
	Deferred       bool
	DefD           float64
	DefELo, DefEHi float64
	DefRegion      geom.Octagon
}

// NewLeaf builds the leaf node for a sink. (core's arena path constructs
// its leaves inline instead, to intern the Groups/Delay structures.)
func NewLeaf(s *Sink) *Node {
	return &Node{
		ID:     s.ID,
		Sink:   s,
		Region: geom.RectFromPoint(s.Loc),
		Cap:    s.CapFF,
		Groups: []int{s.Group},
		Delay:  rctree.PointDelaySet(s.Group, rctree.PointInterval(0)),
	}
}

// IsLeaf reports whether the node wraps a sink.
func (n *Node) IsLeaf() bool { return n.Sink != nil }

// ActiveRegion returns the node's current feasible placement locus: the
// octagonal deferred region while the split is open, otherwise the committed
// rectangle.
func (n *Node) ActiveRegion() geom.Octagon {
	if n.Deferred {
		return n.DefRegion
	}
	return geom.OctFromRect(n.Region)
}

// Resolve pins a deferred node's split at e ∈ [DefELo, DefEHi] (clamped),
// committing the child edge lengths, the placement rectangle and the exact
// per-group delay map. Resolving a non-deferred node is a no-op.
func (n *Node) Resolve(m rctree.Model, e float64) {
	if !n.Deferred {
		return
	}
	if e < n.DefELo {
		e = n.DefELo
	}
	if e > n.DefEHi {
		e = n.DefEHi
	}
	n.EdgeL, n.EdgeR = e, n.DefD-e
	n.Region = geom.MergeLocus(n.Left.Region, n.Right.Region, n.EdgeL, n.EdgeR)
	n.Delay = mergedDelay(m, n)
	n.Deferred = false
}

// ResolveToward pins a deferred node at the split realizing the closest
// approach of its deferred region to the target region, then returns the
// node's (now committed) placement rectangle. Non-deferred nodes return
// their rectangle unchanged.
func (n *Node) ResolveToward(m rctree.Model, target geom.Octagon) geom.Rect {
	if n.Deferred {
		q, _ := geom.ClosestPoints(n.DefRegion, target)
		n.Resolve(m, geom.DistRP(n.Left.Region, q))
	}
	return n.Region
}

// DelayAt returns the per-group delay set a deferred node would commit at
// split e, without committing it. For resolved nodes it returns the current
// set. The result must not be mutated.
func (n *Node) DelayAt(m rctree.Model, e float64) rctree.DelaySet {
	if !n.Deferred {
		return n.Delay
	}
	buf := rctree.MakeDelaySet(len(n.Groups))
	return n.DelayAtBuf(m, e, &buf)
}

// DelayAtBuf is DelayAt evaluating into buf (reset first), so hot callers
// — the split searches of joint resolution evaluate hundreds of candidate
// splits per merge — can reuse one buffer instead of allocating per call.
// For resolved nodes it returns the committed set and leaves buf untouched.
// The result must not be mutated and is valid until buf's next reuse.
func (n *Node) DelayAtBuf(m rctree.Model, e float64, buf *rctree.DelaySet) rctree.DelaySet {
	if !n.Deferred {
		return n.Delay
	}
	mergedDelayInto(buf, m, n.Left, n.Right, e, n.DefD-e)
	return *buf
}

// RectAt returns the placement rectangle a deferred node would commit at
// split e. For resolved nodes it returns the committed rectangle.
func (n *Node) RectAt(e float64) geom.Rect {
	if !n.Deferred {
		return n.Region
	}
	return geom.MergeLocus(n.Left.Region, n.Right.Region, e, n.DefD-e)
}

// SplitRange returns the feasible split window ([0,0] for resolved nodes).
func (n *Node) SplitRange() (lo, hi float64) {
	if !n.Deferred {
		return 0, 0
	}
	return n.DefELo, n.DefEHi
}

// mergedDelay computes a node's per-group delay set from its resolved
// children and committed edges.
func mergedDelay(m rctree.Model, n *Node) rctree.DelaySet {
	d := rctree.MakeDelaySet(len(n.Groups))
	mergedDelayInto(&d, m, n.Left, n.Right, n.EdgeL, n.EdgeR)
	return d
}

// mergedDelayInto merges the per-group delay intervals of children left and
// right, joined through edges of the given lengths, into d (reset first).
func mergedDelayInto(d *rctree.DelaySet, m rctree.Model, left, right *Node, edgeL, edgeR float64) {
	wl := m.WireDelay(edgeL, left.Cap)
	wr := m.WireDelay(edgeR, right.Cap)
	rctree.MergeDelaysInto(d, left.Delay, wl, right.Delay, wr)
}

// HasGroup reports whether group g occurs in the subtree.
func (n *Node) HasGroup(g int) bool {
	i := sort.SearchInts(n.Groups, g)
	return i < len(n.Groups) && n.Groups[i] == g
}

// PureGroup returns (g, true) when every sink of the subtree belongs to the
// single group g.
func (n *Node) PureGroup() (int, bool) {
	if len(n.Groups) == 1 {
		return n.Groups[0], true
	}
	return -1, false
}

// OverallDelay returns the interval covering all sink delays of the subtree.
func (n *Node) OverallDelay() rctree.Interval {
	return n.Delay.Overall()
}

// UnionGroups merges two sorted group slices.
func UnionGroups(a, b []int) []int {
	return AppendUnionGroups(make([]int, 0, len(a)+len(b)), a, b)
}

// AppendUnionGroups appends the sorted union of a and b to dst, letting hot
// callers reuse a scratch buffer.
func AppendUnionGroups(dst, a, b []int) []int {
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

// SharesGroup reports whether two sorted group slices intersect, without
// building the intersection: merge keys test it from concurrent pairing
// goroutines on every candidate pair.
func SharesGroup(a, b []int) bool {
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

// AppendSharedGroups appends the sorted intersection of a and b to dst,
// letting hot callers reuse a scratch buffer.
func AppendSharedGroups(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
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
func (n *Node) Recompute(m rctree.Model) {
	if n.IsLeaf() {
		n.Cap = n.Sink.CapFF
		n.Delay = rctree.PointDelaySet(n.Sink.Group, rctree.PointInterval(0))
		return
	}
	n.Left.Recompute(m)
	n.Right.Recompute(m)
	n.Cap = n.Left.Cap + n.Right.Cap + m.WireCap(n.EdgeL) + m.WireCap(n.EdgeR)
	n.Delay = mergedDelay(m, n)
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
