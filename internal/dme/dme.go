// Package dme is a standalone, textbook implementation of the classic
// Deferred-Merge Embedding algorithm for exact zero-skew clock trees
// (Chao–Hsu–Ho–Boese–Kahng 1992; Tsay 1991; greedy order after Edahiro
// 1993): bottom-up merging-segment construction followed by top-down
// embedding.
//
// The package intentionally duplicates none of internal/core's machinery —
// no deferred regions, no constraint windows, no octagons — so it serves as
// an independent oracle: differential tests verify that core's ZST mode and
// this implementation both achieve exact zero skew and comparable
// wirelength on the same instances, guarding the much more general engine
// against regressions in its degenerate case.
//
// Above gridThreshold sinks the nearest-neighbor queries go through the
// uniform bucket grid of internal/spatial (segments are exact rectangles, so
// the grid ranking is exact and results are identical to the linear scan —
// a differential test pins this). Small instances keep the pure scan, so the
// oracle role for core's tests is untouched by the index.
package dme

import (
	"math"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
	"repro/internal/spatial"
)

// gridThreshold is the sink count at which mergeAll switches its
// nearest-neighbor queries from the linear scan to the spatial grid.
const gridThreshold = 512

// Node is a subtree in the classic DME sense: a merging segment (a Manhattan
// arc, kept as a degenerate-or-thin geom.Rect), the exact zero-skew delay of
// every sink beneath it, and the downstream capacitance.
type Node struct {
	// Seg is the merging segment.
	Seg geom.Rect
	// Delay is the (equal) root-to-sink delay of all sinks below (ps).
	Delay float64
	// Cap is the downstream capacitance (fF).
	Cap float64
	// EdgeL, EdgeR are the committed child wire lengths.
	EdgeL, EdgeR float64
	// Left, Right are the children; Sink is set for leaves.
	Left, Right *Node
	Sink        *ctree.Sink
	// Loc is the embedded location (valid after Embed).
	Loc geom.UV
}

// Result is a routed zero-skew tree.
type Result struct {
	Root *Node
	// Wirelength includes the source connection.
	Wirelength float64
	SourceWire float64
}

// Build constructs an exact zero-skew tree for the instance, ignoring sink
// groups, under the given delay model.
func Build(in *ctree.Instance, m rctree.Model) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	active := make([]*Node, 0, len(in.Sinks))
	for i := range in.Sinks {
		s := &in.Sinks[i]
		active = append(active, &Node{
			Seg:  geom.RectFromPoint(s.Loc),
			Cap:  s.CapFF,
			Sink: s,
		})
	}

	// Greedy nearest-pair merging via a lazy pairing heap (segment
	// distances never change while both endpoints live).
	root := mergeAll(active, m, len(active) >= gridThreshold)

	res := &Result{Root: root}
	res.SourceWire = geom.DistRP(root.Seg, geom.ToUV(in.Source))
	res.Wirelength = wirelength(root) + res.SourceWire
	embed(root, geom.ToUV(in.Source))
	return res, nil
}

// merge combines two subtrees with the exact zero-skew split (Tsay).
func merge(a, b *Node, m rctree.Model) *Node {
	d := geom.DistRR(a.Seg, b.Seg)
	mg := rctree.Balance(m, d, a.Delay, a.Cap, b.Delay, b.Cap)
	return &Node{
		Seg:   geom.MergeLocus(a.Seg, b.Seg, mg.Ea, mg.Eb),
		Delay: a.Delay + m.WireDelay(mg.Ea, a.Cap),
		Cap:   a.Cap + b.Cap + m.WireCap(mg.Ea) + m.WireCap(mg.Eb),
		EdgeL: mg.Ea, EdgeR: mg.Eb,
		Left: a, Right: b,
	}
}

// pqItem is a candidate pair keyed by segment distance.
type pqItem struct {
	d    float64
	i, j int
}

// pq is a slice-backed min-heap of candidate pairs: unlike container/heap
// it boxes nothing, so the ~4n pushes of a run allocate only the slice's
// amortized growth.
type pq []pqItem

func (p pq) less(a, b int) bool { return p[a].d < p[b].d }

func (p *pq) push(it pqItem) {
	*p = append(*p, it)
	h := *p
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (p *pq) pop() pqItem {
	h := *p
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*p = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < last && h.less(l, least) {
			least = l
		}
		if r < last && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// mergeAll drains the items into one tree. useGrid answers the
// nearest-segment queries from the bucket grid instead of a linear scan;
// both paths produce identical trees (segments are exact rectangles, and a
// differential test pins the equality).
func mergeAll(items []*Node, m rctree.Model, useGrid bool) *Node {
	if len(items) == 1 {
		return items[0]
	}
	nodes := append([]*Node(nil), items...)
	alive := make([]bool, len(nodes), 2*len(nodes))
	for i := range alive {
		alive[i] = true
	}
	dist := func(i, j int) float64 { return geom.DistRR(nodes[i].Seg, nodes[j].Seg) }
	h := make(pq, 0, 2*len(nodes))

	// The index files each node under its segment, so its box distance is
	// the merge distance.
	var idx *spatial.Index
	if useGrid {
		boxes := make([]geom.Rect, len(nodes))
		for i := range nodes {
			boxes[i] = nodes[i].Seg
		}
		idx = spatial.New(spatial.DensityCell(boxes))
		idx.InsertAll(boxes)
	}
	pushNN := func(i int) {
		best, bestD := -1, math.Inf(1)
		if idx != nil {
			best, bestD, _ = idx.NearestBox(i)
		} else {
			for j := range nodes {
				if j != i && alive[j] {
					if d := dist(i, j); d < bestD {
						best, bestD = j, d
					}
				}
			}
		}
		if best >= 0 {
			h.push(pqItem{d: bestD, i: i, j: best})
		}
	}
	for i := range nodes {
		pushNN(i)
	}
	live := len(nodes)
	for live > 1 {
		it := h.pop()
		switch {
		case alive[it.i] && alive[it.j]:
			alive[it.i], alive[it.j] = false, false
			if idx != nil {
				idx.Delete(it.i)
				idx.Delete(it.j)
			}
			c := merge(nodes[it.i], nodes[it.j], m)
			nodes = append(nodes, c)
			alive = append(alive, true)
			if idx != nil {
				idx.Insert(len(nodes)-1, c.Seg)
			}
			pushNN(len(nodes) - 1)
			live--
		case alive[it.i]:
			pushNN(it.i)
		case alive[it.j]:
			pushNN(it.j)
		}
	}
	return nodes[len(nodes)-1]
}

func wirelength(n *Node) float64 {
	if n == nil || n.Sink != nil {
		return 0
	}
	return n.EdgeL + n.EdgeR + wirelength(n.Left) + wirelength(n.Right)
}

// embed performs the top-down embedding toward the given point.
func embed(n *Node, toward geom.UV) {
	n.Loc = n.Seg.ClosestPointTo(toward)
	if n.Sink != nil {
		return
	}
	embed(n.Left, n.Loc)
	embed(n.Right, n.Loc)
}

// SinkDelays evaluates the Elmore delay to every sink from the tree root
// using the committed edge lengths, independently of the Delay bookkeeping.
func (r *Result) SinkDelays(m rctree.Model, nSinks int) []float64 {
	out := make([]float64, nSinks)
	caps := map[*Node]float64{}
	var capOf func(n *Node) float64
	capOf = func(n *Node) float64 {
		if n.Sink != nil {
			caps[n] = n.Sink.CapFF
			return caps[n]
		}
		c := capOf(n.Left) + capOf(n.Right) + m.WireCap(n.EdgeL) + m.WireCap(n.EdgeR)
		caps[n] = c
		return c
	}
	capOf(r.Root)
	var walk func(n *Node, t float64)
	walk = func(n *Node, t float64) {
		if n.Sink != nil {
			out[n.Sink.ID] = t
			return
		}
		walk(n.Left, t+m.WireDelay(n.EdgeL, caps[n.Left]))
		walk(n.Right, t+m.WireDelay(n.EdgeR, caps[n.Right]))
	}
	walk(r.Root, 0)
	return out
}

// Skew returns max−min over the evaluated sink delays.
func (r *Result) Skew(m rctree.Model, nSinks int) float64 {
	d := r.SinkDelays(m, nSinks)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range d {
		lo = math.Min(lo, t)
		hi = math.Max(hi, t)
	}
	return hi - lo
}
