// Package eval independently analyzes a routed clock tree. It recomputes
// downstream capacitances and Elmore delays from the committed edge lengths
// alone — deliberately not reusing any delay bookkeeping kept by the routers
// — so tests can cross-check the routers' incremental state, and experiment
// tables report measured (not assumed) skews.
package eval

import (
	"fmt"
	"math"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rctree"
)

// Report holds the measured properties of a routed tree.
type Report struct {
	// TreeWire is the committed wirelength of the tree (excluding the
	// source-to-root connection); SourceWire the latter; TotalWire their sum.
	TreeWire, SourceWire, TotalWire float64
	// SinkDelay maps sink ID to its Elmore delay (ps) from the tree root.
	SinkDelay []float64
	// GlobalSkew is max−min over all sink delays.
	GlobalSkew float64
	// GroupSkew is the per-group delay spread; MaxGroupSkew its maximum —
	// the quantity the associative-skew constraint bounds.
	GroupSkew    []float64
	MaxGroupSkew float64
	// MinDelay/MaxDelay are the extreme sink delays.
	MinDelay, MaxDelay float64
	// Sinks is the number of sinks reached.
	Sinks int
}

// Analyze measures the routed tree against its instance. source is the clock
// source location used for SourceWire.
func Analyze(root *ctree.Node, in *ctree.Instance, m rctree.Model, source geom.Point) *Report {
	r := &Report{
		SinkDelay: make([]float64, len(in.Sinks)),
		GroupSkew: make([]float64, in.NumGroups),
		MinDelay:  math.Inf(1),
		MaxDelay:  math.Inf(-1),
	}
	for i := range r.SinkDelay {
		r.SinkDelay[i] = math.NaN()
	}
	// caps[i] is the downstream capacitance of the i-th node in pre-order.
	caps := make([]float64, 0, 2*len(in.Sinks))
	var capOf func(n *ctree.Node) float64
	capOf = func(n *ctree.Node) float64 {
		i := len(caps)
		caps = append(caps, 0)
		if n.IsLeaf() {
			caps[i] = n.Sink.CapFF
			return caps[i]
		}
		c := capOf(n.Left) + capOf(n.Right) + m.WireCap(n.EdgeL) + m.WireCap(n.EdgeR)
		caps[i] = c
		return c
	}
	capOf(root)

	// The delay walk visits the nodes in the same pre-order: next is the
	// pre-order index of the node the walk enters next, so on entering an
	// internal node it names the left child, and once the left subtree is
	// done it names the right child.
	next := 0
	var walk func(n *ctree.Node, t float64)
	walk = func(n *ctree.Node, t float64) {
		next++
		if n.IsLeaf() {
			r.SinkDelay[n.Sink.ID] = t
			r.MinDelay = math.Min(r.MinDelay, t)
			r.MaxDelay = math.Max(r.MaxDelay, t)
			r.Sinks++
			return
		}
		walk(n.Left, t+m.WireDelay(n.EdgeL, caps[next]))
		walk(n.Right, t+m.WireDelay(n.EdgeR, caps[next]))
	}
	walk(root, 0)

	r.GlobalSkew = r.MaxDelay - r.MinDelay
	gmin := make([]float64, in.NumGroups)
	gmax := make([]float64, in.NumGroups)
	for g := range gmin {
		gmin[g], gmax[g] = math.Inf(1), math.Inf(-1)
	}
	for i, s := range in.Sinks {
		d := r.SinkDelay[i]
		if math.IsNaN(d) {
			continue
		}
		gmin[s.Group] = math.Min(gmin[s.Group], d)
		gmax[s.Group] = math.Max(gmax[s.Group], d)
	}
	for g := range r.GroupSkew {
		if gmax[g] >= gmin[g] {
			r.GroupSkew[g] = gmax[g] - gmin[g]
			r.MaxGroupSkew = math.Max(r.MaxGroupSkew, r.GroupSkew[g])
		}
	}
	r.TreeWire = root.Wirelength()
	r.SourceWire = geom.DistRP(root.Region, geom.ToUV(source))
	r.TotalWire = r.TreeWire + r.SourceWire
	return r
}

// AnalyzeTraced is Analyze wrapped in an "eval" span on tr, recording the
// headline measurements (global and max-group skew in ps, sinks reached) as
// span attributes so a trace file carries the run's outcome alongside its
// time attribution. A nil tr makes it exactly Analyze.
func AnalyzeTraced(tr *obs.Trace, root *ctree.Node, in *ctree.Instance, m rctree.Model, source geom.Point) *Report {
	rgn := tr.Begin("eval")
	r := Analyze(root, in, m, source)
	rgn.Attr("global_skew_ps", r.GlobalSkew).
		Attr("max_group_skew_ps", r.MaxGroupSkew).
		Attr("sinks", float64(r.Sinks))
	rgn.End()
	return r
}

// SeamSkew measures the residual intra-group skew across partition seams:
// perGroup[g] is the largest delay difference between two of group g's sinks
// routed in different parts (shards), and maxSeam the maximum over groups.
// This is the seam-quality metric of the sharded pipeline (internal/shard):
// within one shard the intra-group windows bound the spread directly, so
// whatever skew a sharded build leaks beyond an unsharded one lives across
// seams — shards that committed contradictory inter-group offsets force the
// stitch to reconcile them, and the residue lands here. A group confined to
// one part (or unreached) contributes 0. parts is the sink-ID partition in
// shard.Result.Parts form; sinks absent from every part are ignored.
func SeamSkew(r *Report, in *ctree.Instance, parts [][]int) (perGroup []float64, maxSeam float64) {
	g, k := in.NumGroups, len(parts)
	perGroup = make([]float64, g)
	if k < 2 {
		return perGroup, 0
	}
	partOf := make([]int, len(in.Sinks))
	for i := range partOf {
		partOf[i] = -1
	}
	for p, ids := range parts {
		for _, id := range ids {
			partOf[id] = p
		}
	}
	// Per-(group, part) delay extrema.
	lo := make([]float64, g*k)
	hi := make([]float64, g*k)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, s := range in.Sinks {
		p := partOf[s.ID]
		d := r.SinkDelay[s.ID]
		if p < 0 || math.IsNaN(d) {
			continue
		}
		c := s.Group*k + p
		lo[c] = math.Min(lo[c], d)
		hi[c] = math.Max(hi[c], d)
	}
	for gi := 0; gi < g; gi++ {
		// The seam spread max over part pairs a ≠ b of hi[a] − lo[b] needs,
		// for each a, the smallest lo over the *other* parts: track the two
		// smallest minima so the part holding the global minimum compares
		// against the runner-up.
		min1, min2, minAt := math.Inf(1), math.Inf(1), -1
		for p := 0; p < k; p++ {
			switch v := lo[gi*k+p]; {
			case v < min1:
				min2, min1, minAt = min1, v, p
			case v < min2:
				min2 = v
			}
		}
		for p := 0; p < k; p++ {
			h := hi[gi*k+p]
			if math.IsInf(h, -1) {
				continue
			}
			other := min1
			if p == minAt {
				other = min2
			}
			if !math.IsInf(other, 1) && h-other > perGroup[gi] {
				perGroup[gi] = h - other
			}
		}
		maxSeam = math.Max(maxSeam, perGroup[gi])
	}
	return perGroup, maxSeam
}

// CheckTree verifies structural invariants of a routed, embedded tree:
// every sink reached exactly once, every node placed inside its region,
// leaves at their sink locations, and committed edge lengths no shorter than
// the embedded child distances. It returns the first violation found.
func CheckTree(root *ctree.Node, in *ctree.Instance) error {
	seen := make([]int, len(in.Sinks))
	var err error
	root.Visit(func(n *ctree.Node) {
		if err != nil {
			return
		}
		if n.IsLeaf() {
			if n.Sink.ID < 0 || n.Sink.ID >= len(seen) {
				err = fmt.Errorf("leaf with bad sink id %d", n.Sink.ID)
				return
			}
			seen[n.Sink.ID]++
			if n.Placed {
				if d := geom.DistUV(n.Loc, geom.ToUV(n.Sink.Loc)); d > 1e-6 {
					err = fmt.Errorf("sink %d embedded %g away from pin", n.Sink.ID, d)
				}
			}
			return
		}
		if (n.Left == nil) != (n.Right == nil) {
			err = fmt.Errorf("node %d has exactly one child", n.ID)
			return
		}
		if n.EdgeL < 0 || n.EdgeR < 0 {
			err = fmt.Errorf("node %d negative edge", n.ID)
			return
		}
		if n.Placed {
			if !n.Region.Inflate(1e-6).Contains(n.Loc) {
				err = fmt.Errorf("node %d placed outside region", n.ID)
				return
			}
			tol := 1e-6 * (1 + n.EdgeL + n.EdgeR)
			if d := geom.DistUV(n.Loc, n.Left.Loc); n.Left.Placed && d > n.EdgeL+tol {
				err = fmt.Errorf("node %d: left distance %g exceeds edge %g", n.ID, d, n.EdgeL)
				return
			}
			if d := geom.DistUV(n.Loc, n.Right.Loc); n.Right.Placed && d > n.EdgeR+tol {
				err = fmt.Errorf("node %d: right distance %g exceeds edge %g", n.ID, d, n.EdgeR)
			}
		}
	})
	if err != nil {
		return err
	}
	for id, c := range seen {
		if c != 1 {
			return fmt.Errorf("sink %d reached %d times", id, c)
		}
	}
	return nil
}

// PairSkews returns the matrix of inter-group skew ranges implied by the
// measured sink delays: entry [i][j] is the interval of delay(j)−delay(i)
// over all sink pairs, i.e. [min_j − max_i, max_j − min_i]. It verifies
// prescribed inter-group constraints (core.PairConstraint) and reports the
// by-product offsets S_{i,j} of the thesis's formulation.
func (r *Report) PairSkews(in *ctree.Instance) [][][2]float64 {
	gmin := make([]float64, in.NumGroups)
	gmax := make([]float64, in.NumGroups)
	for g := range gmin {
		gmin[g], gmax[g] = math.Inf(1), math.Inf(-1)
	}
	for _, s := range in.Sinks {
		d := r.SinkDelay[s.ID]
		if math.IsNaN(d) {
			continue
		}
		gmin[s.Group] = math.Min(gmin[s.Group], d)
		gmax[s.Group] = math.Max(gmax[s.Group], d)
	}
	out := make([][][2]float64, in.NumGroups)
	for i := range out {
		out[i] = make([][2]float64, in.NumGroups)
		for j := range out[i] {
			out[i][j] = [2]float64{gmin[j] - gmax[i], gmax[j] - gmin[i]}
		}
	}
	return out
}
