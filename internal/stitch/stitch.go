// Package stitch implements the separate-trees-and-stitch baseline for
// associative skew routing, in the style of the only prior work
// (Chen–Kahng–Qu–Zelikovsky, ICCAD 1999) as characterized by the thesis's
// Chapter IV: build a zero-skew tree for each sink group separately, then
// stitch the per-group roots together with unconstrained merges.
//
// On instances whose groups are geometrically intermingled the per-group
// trees overlap each other's territory, wasting wire — the observation
// (thesis Fig. 2) motivating AST-DME's simultaneous treatment of all groups.
// The package exists to reproduce that comparison.
package stitch

import (
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/rctree"
)

// Options configures the stitch baseline, which routes with the default
// delay model and merging order.
type Options struct {
	// IntraSkewBound is the per-group skew bound (ps) used for the per-group
	// zero-skew trees (0 = exact).
	IntraSkewBound float64
}

// Result is a completed stitch routing.
type Result struct {
	// Instance is the routed instance.
	Instance *ctree.Instance
	// Root is the stitched tree (group subtrees merged at their roots).
	Root *ctree.Node
	// Wirelength is the total committed wirelength including the source
	// connection.
	Wirelength float64
	// GroupWire is the wirelength of each per-group subtree.
	GroupWire []float64
	// StitchWire is the wire spent connecting the group roots (and source).
	StitchWire float64
}

// Build routes each group separately as a zero-skew (or bounded) tree, then
// stitches the group roots with unconstrained minimum-distance merges.
func Build(in *ctree.Instance, opt Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}

	// Route each group on its own sub-instance, then transplant the subtree
	// onto the original sinks (IDs are preserved through the Sink pointers
	// of the sub-instance, so remap by position).
	roots := make([]*ctree.Node, in.NumGroups)
	res := &Result{Instance: in, GroupWire: make([]float64, in.NumGroups)}
	for g := 0; g < in.NumGroups; g++ {
		sub := &ctree.Instance{
			Name:      in.Name,
			Source:    in.Source,
			NumGroups: 1,
		}
		var backRefs []int
		for i, s := range in.Sinks {
			if s.Group != g {
				continue
			}
			sc := s
			sc.ID = len(sub.Sinks)
			sc.Group = 0
			sub.Sinks = append(sub.Sinks, sc)
			backRefs = append(backRefs, i)
		}
		r, err := core.Build(sub, core.Options{SingleGroup: true, IntraSkewBound: opt.IntraSkewBound})
		if err != nil {
			return nil, err
		}
		// Point the leaves back at the original instance's sinks so that
		// evaluation against the full instance works. Their delay sets keep
		// the sub-instance's group 0 until a stitch merge recomputes the
		// subtree from the sinks' own groups.
		r.Root.Visit(func(n *ctree.Node) {
			if n.IsLeaf() {
				n.Sink = &in.Sinks[backRefs[n.Sink.ID]]
			}
		})
		roots[g] = r.Root
		res.GroupWire[g] = r.Root.Wirelength()
	}

	// Stitch the group roots: repeated unconstrained nearest merges, wire
	// equal to the root distances (no balancing between groups).
	m := core.DefaultModel()
	active := append([]*ctree.Node(nil), roots...)
	for len(active) > 1 {
		bi, bj := 0, 1
		best := geom.DistRR(active[0].Region, active[1].Region)
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if d := geom.DistRR(active[i].Region, active[j].Region); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		na, nb := active[bi], active[bj]
		d := best
		mg := rctree.BalanceClamped(m, d, na.OverallDelay().Hi, na.Cap, nb.OverallDelay().Hi, nb.Cap)
		c := &ctree.Node{
			Left: na, Right: nb,
			EdgeL: mg.Ea, EdgeR: mg.Eb,
			Region: geom.MergeLocus(na.Region, nb.Region, mg.Ea, mg.Eb),
			Cap:    na.Cap + nb.Cap + m.WireCap(d),
		}
		c.Recompute(m)
		res.StitchWire += d
		active[bi] = c
		active = append(active[:bj], active[bj+1:]...)
	}
	res.Root = active[0]
	res.Root.Embed(geom.ToUV(in.Source))
	res.StitchWire += geom.DistRP(res.Root.Region, geom.ToUV(in.Source))
	res.Wirelength = res.Root.Wirelength() + geom.DistRP(res.Root.Region, geom.ToUV(in.Source))
	return res, nil
}

// Analyze measures the stitched tree with the shared evaluator.
func (r *Result) Analyze(m rctree.Model) *eval.Report {
	if m == nil {
		m = core.DefaultModel()
	}
	return eval.Analyze(r.Root, r.Instance, m, r.Instance.Source)
}
