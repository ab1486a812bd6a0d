package shard

import (
	"cmp"
	"slices"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/spatial"
)

// gapWindowFrac bounds how far (as a fraction of the subset size) a cut may
// drift from the exact count quantile while snapping to a placement gap:
// population balance is a hard requirement (shard build cost is roughly
// linearithmic in shard size), gap quality a preference.
const gapWindowFrac = 16

// Partition splits the instance's sink IDs into k spatially compact,
// population-balanced shards by recursive bisection in uv-space (see the
// package comment for the cut policy). k must be in [1, len(Sinks)]; every
// returned shard is non-empty, the shards are disjoint, and their union is
// the full sink set. The result is a pure function of (instance, k).
func Partition(in *ctree.Instance, k int) [][]int {
	ids := make([]int, len(in.Sinks))
	for i := range ids {
		ids[i] = i
	}
	out := make([][]int, 0, k)
	var rec func(ids []int, k int)
	rec = func(ids []int, k int) {
		if k == 1 {
			out = append(out, ids)
			return
		}
		k1 := (k + 1) / 2
		cut := bisect(in, ids, k1, k)
		rec(ids[:cut], k1)
		rec(ids[cut:], k-k1)
	}
	rec(ids, k)
	return out
}

// bisect orders ids along the longer uv axis of their bounding box and
// returns the cut index splitting them k1 : k−k1 by count, snapped to the
// widest placement gap within the quantile's neighborhood when that gap is
// at least the subset's DensityCell edge (a genuine inter-cluster void at
// the measured density, not sink-to-sink spacing). ids is sorted in place.
// Coordinates and boxes are precomputed in one pass so the sort comparator
// and the gap scan never re-derive uv transforms.
func bisect(in *ctree.Instance, ids []int, k1, k int) int {
	type keyed struct {
		c  float64
		id int
	}
	entries := make([]keyed, len(ids))
	p0 := geom.ToUV(in.Sinks[ids[0]].Loc)
	minU, maxU, minV, maxV := p0.U, p0.U, p0.V, p0.V
	for i, id := range ids {
		p := geom.ToUV(in.Sinks[id].Loc)
		minU, maxU = min(minU, p.U), max(maxU, p.U)
		minV, maxV = min(minV, p.V), max(maxV, p.V)
		entries[i] = keyed{c: p.U, id: id}
	}
	if maxU-minU < maxV-minV {
		for i, id := range ids {
			entries[i].c = geom.ToUV(in.Sinks[id].Loc).V
		}
	}
	// A strict (coordinate, id) order over finite coordinates: one
	// permutation, whichever sort computes it.
	slices.SortFunc(entries, func(a, b keyed) int {
		if c := cmp.Compare(a.c, b.c); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, e := range entries {
		ids[i] = e.id
	}

	// Count-proportional quantile, clamped so both halves can host their
	// shard counts (each shard needs ≥ 1 sink).
	cut := len(ids) * k1 / k
	cut = max(cut, k1)
	cut = min(cut, len(ids)-(k-k1))

	// Snap to the widest gap within ± len/gapWindowFrac of the quantile,
	// but only when it clears the density scale: DensityCell measures the
	// dense regions' spacing, so a qualifying gap separates clusters.
	w := len(ids) / gapWindowFrac
	if w > 0 {
		boxes := make([]geom.Rect, len(ids))
		for i, id := range ids {
			boxes[i] = geom.RectFromPoint(in.Sinks[id].Loc)
		}
		cell := spatial.DensityCell(boxes)
		lo, hi := max(cut-w, k1), min(cut+w, len(ids)-(k-k1))
		bestGap, bestAt := 0.0, cut
		for c := lo; c <= hi; c++ {
			gap := entries[c].c - entries[c-1].c
			closer := abs(c-cut) < abs(bestAt-cut)
			if gap > bestGap || (gap == bestGap && closer) {
				bestGap, bestAt = gap, c
			}
		}
		if bestGap >= cell {
			cut = bestAt
		}
	}
	return cut
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
