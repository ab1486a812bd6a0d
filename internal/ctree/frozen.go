package ctree

import (
	"fmt"
	"slices"
)

// Frozen is an immutable snapshot of a subtree that can be thawed into any
// number of independent mutable copies. The incremental rerouting cache keeps
// each shard's pre-stitch subtree in this form: the stitch resolves deferred
// roots and elongates handle edges in place, so every rebuild adopts a fresh
// copy, and a copy costs one slab allocation and one slab copy instead of a
// serialization round trip.
//
// The nodes are stored by value in one pre-order slab with their pointer
// fields cleared. Child links become slab indices (the left child of node i
// is always i+1), handles become (group, parent index, side) triples, and
// leaves keep their sink ids. The Groups and Delay slices are shared by the
// snapshot and every copy: routers never mutate a committed group slice or
// delay set in place (see the package comment), they assign replacements.
type Frozen struct {
	nodes   []Node
	links   []frozenLink
	handles []frozenHandle
}

// frozenLink is the pointer structure of one slab node.
type frozenLink struct {
	// right is the slab index of the right child, or -1 for a leaf.
	right int32
	// sink is a leaf's sink id.
	sink int32
}

// frozenHandle is one Handles entry of slab node owner. Handles are stored
// grouped by owner in slab order, ascending by group within an owner.
type frozenHandle struct {
	owner, parent int32
	side          Side
	group         int
}

// Freeze snapshots the subtree under root. The subtree must be a well
// formed tree: every internal node has two children and every handle names
// an edge of the subtree. Freeze panics otherwise.
func Freeze(root *Node) *Frozen {
	size := root.CountNodes()
	f := &Frozen{nodes: make([]Node, 0, size), links: make([]frozenLink, 0, size)}
	// rightOf is the slab index of the node whose right child n is, or -1:
	// a right child's index is known only once its left sibling's subtree
	// has been laid out.
	type item struct {
		n       *Node
		rightOf int32
	}
	handles := false
	stack := []item{{root, -1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, i := it.n, int32(len(f.nodes))
		if it.rightOf >= 0 {
			f.links[it.rightOf].right = i
		}
		v := *n
		v.Sink, v.Left, v.Right, v.Handles = nil, nil, nil, nil
		f.nodes = append(f.nodes, v)
		f.links = append(f.links, frozenLink{right: -1})
		handles = handles || len(n.Handles) > 0
		if n.IsLeaf() {
			f.links[i].sink = int32(n.Sink.ID)
			continue
		}
		if n.Left == nil || n.Right == nil {
			panic(fmt.Sprintf("ctree: freeze: internal node %d missing a child", n.ID))
		}
		// Push right first so the left subtree pops first: pre-order.
		stack = append(stack, item{n.Right, i}, item{n.Left, -1})
	}
	if handles {
		f.freezeHandles(root)
	}
	return f
}

// freezeHandles converts every node's Handles into triples. Routers leave
// Handles empty, so Freeze pays for the node index this needs only when a
// tree carries some.
func (f *Frozen) freezeHandles(root *Node) {
	index := make(map[*Node]int32, len(f.nodes))
	var order []*Node
	root.Visit(func(n *Node) {
		index[n] = int32(len(order))
		order = append(order, n)
	})
	var groups []int
	for i, n := range order {
		groups = groups[:0]
		for g := range n.Handles {
			groups = append(groups, g)
		}
		slices.Sort(groups)
		for _, g := range groups {
			ref := n.Handles[g]
			p, ok := index[ref.Parent]
			if !ok || (ref.Side != SideL && ref.Side != SideR) {
				panic(fmt.Sprintf("ctree: freeze: node %d handle for group %d is not an edge of the tree", n.ID, g))
			}
			f.handles = append(f.handles, frozenHandle{owner: int32(i), parent: p, side: ref.Side, group: g})
		}
	}
}

// Thaw builds a fresh mutable copy of the snapshot whose leaves point into
// in. With a nil remap a leaf keeps its sink id; otherwise the leaf frozen
// with sink id s becomes sink remap[s] of in, ID included, which carries a
// subtree across instance edits that renumbered its sinks. Every leaf must
// have an image in in; Thaw panics otherwise.
func (f *Frozen) Thaw(in *Instance, remap []int) *Node {
	slab := make([]Node, len(f.nodes))
	copy(slab, f.nodes)
	for i, l := range f.links {
		n := &slab[i]
		if l.right >= 0 {
			n.Left, n.Right = &slab[i+1], &slab[l.right]
			continue
		}
		s := int(l.sink)
		if remap != nil {
			if s = remap[s]; s < 0 {
				panic(fmt.Sprintf("ctree: thaw: leaf sink %d has no image under the remap", l.sink))
			}
			n.ID = s
		}
		n.Sink = &in.Sinks[s]
	}
	for j := 0; j < len(f.handles); {
		owner := f.handles[j].owner
		end := j + 1
		for end < len(f.handles) && f.handles[end].owner == owner {
			end++
		}
		m := make(map[int]EdgeRef, end-j)
		for _, h := range f.handles[j:end] {
			m[h.group] = EdgeRef{Parent: &slab[h.parent], Side: h.side}
		}
		slab[owner].Handles = m
		j = end
	}
	return &slab[0]
}
