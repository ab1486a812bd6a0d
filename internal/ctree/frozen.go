package ctree

import "fmt"

// Frozen is an immutable snapshot of a subtree that can be thawed into any
// number of independent mutable copies. The incremental rerouting cache keeps
// each shard's pre-stitch subtree in this form: the stitch resolves deferred
// roots and elongates handle edges in place, so every rebuild adopts a fresh
// copy, and a copy costs one slab allocation and one slab copy instead of a
// serialization round trip.
//
// The nodes are stored by value in one pre-order slab with their pointer
// fields cleared. Child links become slab indices (the left child of node i
// is always i+1), and leaves keep their sink ids. The Groups and Delay
// slices are shared by the snapshot and every copy: routers never mutate a
// committed group slice or delay set in place (see the package comment),
// they assign replacements.
type Frozen struct {
	nodes []Node
	links []frozenLink
}

// frozenLink is the pointer structure of one slab node.
type frozenLink struct {
	// right is the slab index of the right child, or -1 for a leaf.
	right int32
	// sink is a leaf's sink id.
	sink int32
}

// Freeze snapshots the subtree under root. The subtree must be a well
// formed tree: every internal node has two children. Freeze panics
// otherwise.
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
	stack := []item{{root, -1}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, i := it.n, int32(len(f.nodes))
		if it.rightOf >= 0 {
			f.links[it.rightOf].right = i
		}
		v := *n
		v.Sink, v.Left, v.Right = nil, nil, nil
		f.nodes = append(f.nodes, v)
		f.links = append(f.links, frozenLink{right: -1})
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
	return f
}

// Leaves returns the frozen leaves' sink ids in slab order, the order of
// Thaw's leaves argument.
func (f *Frozen) Leaves() []int32 {
	out := make([]int32, 0, (len(f.links)+1)/2) // a full binary tree
	for _, l := range f.links {
		if l.right < 0 {
			out = append(out, l.sink)
		}
	}
	return out
}

// Thaw builds a fresh mutable copy of the snapshot whose leaves point into
// in. With nil leaves a leaf keeps its frozen sink id; otherwise leaves[j]
// is the sink id of in, ID included, that the j-th leaf in slab order (see
// Leaves) becomes, which carries a subtree across instance edits that
// renumbered its sinks. Every leaf must have an image in in; Thaw panics
// otherwise.
func (f *Frozen) Thaw(in *Instance, leaves []int32) *Node {
	slab := make([]Node, len(f.nodes))
	copy(slab, f.nodes)
	j := 0
	for i, l := range f.links {
		n := &slab[i]
		if l.right >= 0 {
			n.Left, n.Right = &slab[i+1], &slab[l.right]
			continue
		}
		s := int(l.sink)
		if leaves != nil {
			if s = int(leaves[j]); s < 0 {
				panic(fmt.Sprintf("ctree: thaw: leaf sink %d has no image", l.sink))
			}
			n.ID = s
			j++
		}
		n.Sink = &in.Sinks[s]
	}
	return &slab[0]
}
