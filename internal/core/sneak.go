package core

import (
	"math"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
)

const (
	// maxSneakIter caps the coupled wire-sneaking iterations per merge.
	maxSneakIter = 8
	// sneakCostCap aborts a sneak whose wire exceeds this multiple of the
	// merge distance, falling back to the least-violation compromise.
	sneakCostCap = 8
)

// sneakScratch is a reusable buffer for one sneak plan.
type sneakScratch struct {
	handles []handle
	gammas  []float64
	plan    sneak
}

// handle is a snaking site: a tree edge whose subtree is pure in the target
// group, together with the resistance of the path from the routing subtree's
// root down to the edge (needed to solve the elongation exactly).
type handle struct {
	ref ctree.EdgeRef
	rUp float64
}

// appendCoverHandles appends to dst the incoming edges of the maximal
// pure-g subtrees of n: elongating all of them by the same delay shifts the
// whole group coherently (the generalized wire-sneaking handle of thesis
// Fig. 5). Appends nothing when n itself is pure (no interior edge covers
// the group). dst is a reusable scratch buffer: callers own its lifetime.
func appendCoverHandles(dst []handle, m rctree.Model, n *ctree.Node, g int) []handle {
	if _, pure := ctree.PureGroup(n.Delay.Groups); pure || n.IsLeaf() {
		return dst
	}
	var walk func(parent *ctree.Node, rUp float64)
	walk = func(parent *ctree.Node, rUp float64) {
		for _, side := range []ctree.Side{ctree.SideL, ctree.SideR} {
			ref := ctree.EdgeRef{Parent: parent, Side: side}
			child := ref.Child()
			if !ctree.HasGroup(child.Delay.Groups, g) {
				continue
			}
			if pg, pure := ctree.PureGroup(child.Delay.Groups); pure && pg == g {
				dst = append(dst, handle{ref: ref, rUp: rUp})
				continue
			}
			if !child.IsLeaf() {
				walk(child, rUp+m.WireRes(ref.Len()))
			}
		}
	}
	walk(n, 0)
	return dst
}

// intersectWindows intersects the feasible X windows of all shared raw
// groups. On conflict it elongates the cover-handle edges of the offending
// group (wire sneaking) inside whichever subtree can shift it more cheaply,
// recomputing that subtree exactly and iterating until the intersection is
// feasible, the wire cost cap is hit, or iterations run out. compromised
// reports that the returned (degenerate) window is a least-violation
// compromise rather than a satisfiable constraint. It lays b.plan out for
// the pair first: sneaks change delays, never the layout.
func (b *builder) intersectWindows(na, nb *ctree.Node) (xLo, xHi float64, compromised bool) {
	b.layout(na, nb, !math.IsInf(b.interBound(), 1))
	m := b.opt.Model
	budget := sneakCostCap * (geom.DistRR(na.Region, nb.Region) + 1)
	for iter := 0; ; iter++ {
		xLo, xHi, gLo, gHi := b.windows(na.Delay.Ivs, nb.Delay.Ivs, nil, nil)
		if math.IsInf(xLo, -1) && math.IsInf(xHi, 1) {
			return xLo, xHi, false // no constraints at all
		}
		gap := xLo - xHi
		eps := 1e-9 * (1 + math.Abs(xLo) + math.Abs(xHi))
		if gap <= eps || iter >= maxSneakIter || gLo == gHi {
			if gap > 0 {
				if gap > eps {
					b.stats.SneakUnresolved++
				}
				// Least-violation compromise: any X between the crossed
				// bounds violates at most gap; keep the middle half of that
				// range (max violation 3·gap/4 instead of gap/2 at the
				// midpoint) so the merge retains region freedom instead of
				// collapsing to a point and starving later merges.
				return xHi + float64(gap/4), xLo - float64(gap/4), gap > eps
			}
			return xLo, xHi, false
		}
		b.stats.SneakIters++
		// Close the gap: either slow constraint gHi on nb's side (raises its
		// window ceiling) or slow gLo on na's side (lowers its floor).
		// Pick the cheaper available cover.
		planB := b.sneakPlan(nb, gHi, gap, &b.sneakB)
		planA := b.sneakPlan(na, gLo, gap, &b.sneakA)
		plan, sub := planB, nb
		if planB == nil || (planA != nil && planA.wire < planB.wire) {
			plan, sub = planA, na
		}
		if plan == nil || plan.wire > budget {
			b.stats.SneakUnresolved++
			c := (xLo + xHi) / 2
			return c, c, true
		}
		// Apply tentatively and verify progress: the added snake capacitance
		// perturbs every delay in the subtree through shared ancestor
		// resistance, and when that crosstalk rivals the intended shift the
		// sneak cannot converge — revert and fall back to the compromise.
		for i, h := range plan.handles {
			h.ref.AddLen(plan.gammas[i])
		}
		sub.Recompute(m)
		if newGap := b.currentGap(na, nb); newGap > 0.7*gap {
			for i, h := range plan.handles {
				h.ref.AddLen(-plan.gammas[i])
			}
			sub.Recompute(m)
			b.stats.SneakUnresolved++
			c := (xLo + xHi) / 2
			return c, c, true
		}
		budget -= plan.wire
		b.stats.SneakEvents++
		b.stats.SneakWire += plan.wire
	}
}

// currentGap recomputes the window infeasibility of the pair in place.
func (b *builder) currentGap(na, nb *ctree.Node) float64 {
	xLo, xHi, _, _ := b.windows(na.Delay.Ivs, nb.Delay.Ivs, nil, nil)
	if math.IsInf(xLo, -1) {
		return 0
	}
	return max(xLo-xHi, 0)
}

// sneak is a set of edge elongations that coherently delays one constraint's
// sinks inside a subtree. Its slices alias a sneakScratch buffer: a plan is
// valid until that buffer's next reuse, which is fine because plans are
// applied (or discarded) within the same intersectWindows iteration.
type sneak struct {
	handles []handle
	gammas  []float64
	wire    float64
}

// sneakPlan computes the edge elongations that add `delay` ps to every sink
// governed by constraint c in subtree n, or nil when no cover exists. For a
// raw-group constraint the cover is the group's maximal pure subtrees; for a
// union-root leash it is the union of the covers of all member groups
// present in n. buf provides the plan's backing storage.
func (b *builder) sneakPlan(n *ctree.Node, c constraint, delay float64, buf *sneakScratch) *sneak {
	m := b.opt.Model
	hs := buf.handles[:0]
	if c.raw {
		hs = appendCoverHandles(hs, m, n, c.id)
	} else {
		for _, g := range n.Delay.Groups {
			if r, _ := b.uf.find(int(g)); r == c.id {
				hs = appendCoverHandles(hs, m, n, int(g))
			}
		}
	}
	buf.handles = hs
	if len(hs) == 0 {
		return nil
	}
	buf.plan = sneak{handles: hs, gammas: buf.gammas[:0]}
	p := &buf.plan
	for _, h := range hs {
		gam := m.ElongationFor(delay, h.ref.Len(), h.ref.Child().Cap, h.rUp)
		p.gammas = append(p.gammas, gam)
		p.wire += gam
	}
	buf.gammas = p.gammas
	return p
}
