package core

import (
	"math"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
)

// interBound returns the inter-group spread window, +Inf when disabled.
// In SingleGroup mode the single group's bound already covers everything.
func (b *builder) interBound() float64 {
	if b.opt.SingleGroup {
		return math.Inf(1)
	}
	if b.opt.InterSkewBound < 0 {
		return math.Inf(1)
	}
	return b.opt.InterSkewBound
}

// constraint identifies one hard window of a merge.
type constraint struct {
	// raw is true for an intra-group constraint on a shared raw group;
	// false for a consistency leash on a shared union root.
	raw bool
	// id is the raw group or the union root.
	id int
}

// forConstraints invokes f for every hard constraint of the merge b.plan
// lays out, between operands with the raw delay sets da and db:
//
//   - one window per shared raw group, at the intra-group bound B — the
//     thesis's skew constraints proper; and
//   - one window per shared union root on the registry-normalized scale, at
//     the leash bound B + W: the committed inter-group offsets of related
//     groups may float within the inter-group window W of their registered
//     values (the thesis's "bounded range" implied by its merging regions),
//     which keeps independently built subtrees consistent without freezing
//     the offsets outright.
//
// va and vb, when non-nil, hold da and db already on the normalized scale
// (the split search normalizes each candidate split once and pairs it with
// many partners); nil normalizes into the builder's scratch when the
// union-root pass runs.
func (b *builder) forConstraints(da, db rctree.DelaySet, va, vb []rctree.Interval,
	f func(c constraint, ia, ib rctree.Interval, bound float64)) {
	p := &b.plan
	bd := b.opt.IntraSkewBound
	for _, s := range p.raw {
		f(constraint{raw: true, id: s.id}, da.Ivs[s.a], db.Ivs[s.b], bd)
	}
	w := b.interBound()
	if math.IsInf(w, 1) {
		return
	}
	if va == nil {
		b.normA, b.normB = p.a.normalize(b.normA, da), p.b.normalize(b.normB, db)
		va, vb = b.normA, b.normB
	}
	for _, r := range p.roots {
		f(constraint{raw: false, id: r.id}, va[r.a], vb[r.b], bd+w)
	}
}

// overallOf returns the node's overall delay interval; for deferred nodes it
// evaluates the midpoint split without committing it.
func (b *builder) overallOf(n *ctree.Node) rctree.Interval {
	if !n.Deferred {
		return n.OverallDelay()
	}
	m := b.opt.Model
	e := mid(n.SplitRange())
	l := n.Left.OverallDelay().Shift(m.WireDelay(e, n.Left.Cap))
	r := n.Right.OverallDelay().Shift(m.WireDelay(n.DefD-e, n.Right.Cap))
	return rctree.Cover(l, r)
}

// mergeKey estimates the wirelength a merge of nodes i and j would commit:
// their region distance plus, when they share a group, the snaking excess
// implied by their current delay imbalance. Using this as the greedy merging
// cost (instead of bare distance) reproduces greedy-DME's minimum-cost order
// and prevents delay-imbalanced pairings that fat deferred regions would
// otherwise chain together.
func (b *builder) mergeKey(i, j int, d float64) float64 {
	// In exact zero-skew single-group mode no region is ever fat, chaining
	// cannot occur, and the classic distance order is empirically better.
	if b.opt.SingleGroup && b.opt.IntraSkewBound == 0 {
		return d
	}
	na, nb := b.nodes[i], b.nodes[j]
	var bound float64
	switch {
	case ctree.SharesGroup(na.Groups, nb.Groups):
		bound = b.opt.IntraSkewBound
	case b.relatedRoots(na, nb):
		bound = b.opt.IntraSkewBound + b.interBound()
	default:
		return d
	}
	if math.IsInf(bound, 1) {
		return d
	}
	m := b.opt.Model
	ia := b.overallOf(na)
	ib := b.overallOf(nb)
	xLo := ib.Hi - ia.Lo - bound
	xHi := ib.Lo - ia.Hi + bound
	x0 := -m.WireDelay(d, nb.Cap)
	xd := m.WireDelay(d, na.Cap)
	switch {
	case xHi < x0:
		return d + max(max(m.ExtendForDelay(nb.Cap, -xHi), d)-d, 0)
	case xLo > xd:
		return d + max(max(m.ExtendForDelay(na.Cap, xLo), d)-d, 0)
	default:
		return d
	}
}

// merge performs one AST-DME merge of subtrees a and b (thesis Fig. 6,
// steps 4–7), constructing the new subtree root in c (a preassigned arena
// slot; c.ID is set by the caller at commit).
func (b *builder) merge(na, nb *ctree.Node, c *ctree.Node) {
	m := b.opt.Model
	shared := ctree.SharesGroup(na.Groups, nb.Groups)
	b.stats.Merges++
	switch {
	case !shared:
		b.stats.CrossGroup++
	case len(na.Groups) == 1 && len(nb.Groups) == 1:
		b.stats.SameGroup++
	default:
		b.stats.Shared++
	}

	// Pin any deferred splits. With constraints between the pair the splits
	// are chosen jointly so the windows intersect at the least committed
	// cost; otherwise the closest approach decides.
	if na.Deferred || nb.Deferred {
		if shared || (!math.IsInf(b.interBound(), 1) && b.relatedRoots(na, nb)) {
			b.jointResolve(na, nb)
		} else {
			qa, qb := geom.ClosestPoints(na.ActiveRegion(), nb.ActiveRegion())
			if na.Deferred {
				b.resolve(na, geom.DistRP(na.Left.Region, qa))
			}
			if nb.Deferred {
				b.resolve(nb, geom.DistRP(nb.Left.Region, qb))
			}
		}
	}

	// Intersect the hard windows (shared raw groups + inter-group window),
	// wire-sneaking when they conflict (thesis Fig. 5 / Eqs. 5.1–5.3).
	xLo, xHi, compromised := b.intersectWindows(na, nb)

	d := geom.DistRR(na.Region, nb.Region)
	*c = ctree.Node{
		Left: na, Right: nb,
		Cap:    na.Cap + nb.Cap,
		Groups: b.unionGroups(na, nb),
	}

	eLo, eHi, snaked := b.splitWindow(na, nb, d, xLo, xHi, compromised)
	if snaked {
		b.stats.MergeSnakes++
	}
	const widthEps = 1e-9
	if !snaked && eHi-eLo > widthEps*(1+d) {
		// Keep the whole feasible sub-region of the SDR; the split commits
		// when this node is next merged (or at the tree root).
		c.Deferred = true
		c.DefD = d
		c.DefELo, c.DefEHi = eLo, eHi
		c.DefRegion = geom.SDR(na.Region, nb.Region, d, eLo, eHi)
		c.Cap += m.WireCap(d)
		b.stats.Deferred++
	} else {
		ea, eb := eLo, d-eLo
		if snaked {
			// splitWindow returns committed lengths through eLo/eHi when
			// snaking: eLo is ea, eHi is eb.
			ea, eb = eLo, eHi
		}
		c.EdgeL, c.EdgeR = ea, eb
		c.Region = geom.MergeLocus(na.Region, nb.Region, ea, eb)
		c.Cap += m.WireCap(ea) + m.WireCap(eb)
		wa := m.WireDelay(ea, na.Cap)
		wb := m.WireDelay(eb, nb.Cap)
		ds := b.delays.alloc(na.Delay.Len() + nb.Delay.Len())
		rctree.MergeDelaysInto(&ds, na.Delay, wa, nb.Delay, wb)
		c.Delay = b.delays.reclaim(ds)
		b.registerOffsets(c)
	}
}

func mid(lo, hi float64) float64 { return (lo + hi) / 2 }

// unionGroups returns the sorted union of the children's group sets,
// sharing the child's slice when one side covers the other (always, in
// single-group runs) — group slices are never mutated in place, so sharing
// is safe and saves an allocation on the vast majority of merges.
func (b *builder) unionGroups(na, nb *ctree.Node) []int {
	b.unionBuf = ctree.AppendUnionGroups(b.unionBuf[:0], na.Groups, nb.Groups)
	u := b.unionBuf
	switch {
	case len(u) == len(na.Groups):
		return na.Groups // union ⊇ a and same length ⇒ equal
	case len(u) == len(nb.Groups):
		return nb.Groups
	default:
		return append([]int(nil), u...)
	}
}

// splitEval is one merge operand evaluated at a candidate split e: the
// per-group delays it would commit, those delays on the registry-normalized
// scale (one interval per union-root slot of the operand's plan side), and
// its placement rectangle. Each depends on that operand's split alone, so
// the split search evaluates every candidate once and pairs it with many
// partners. The buffers are scratch owned by the evaluation, grown on first
// use and reused across merges.
type splitEval struct {
	e     float64
	delay rctree.DelaySet
	norm  []rctree.Interval
	buf   rctree.DelaySet // DelayAtBuf output backing delay
	rect  geom.Rect
}

// evalSplit evaluates node n, laid out as plan side ps, at split e into s.
func (b *builder) evalSplit(n *ctree.Node, e float64, s *splitEval, ps *planSide) {
	s.e = e
	s.delay = n.DelayAtBuf(b.opt.Model, e, &s.buf)
	s.norm = ps.normalize(s.norm, s.delay)
	s.rect = n.RectAt(e)
}

// splitCost scores the candidate splits sa of na and sb of nb against the
// upcoming merge. It returns the infeasibility gap (ps) of the intersected
// hard-window system (0 when the windows intersect), the cost the merge
// would commit — the candidate distance, plus any snaking excess needed to
// reach the window, minus a small preference for wide residual windows —
// and the misalignment of the shared union roots' required shifts.
func (b *builder) splitCost(na, nb *ctree.Node, sa, sb *splitEval) (gap, cost, misalign float64) {
	m := b.opt.Model
	xLo, xHi := math.Inf(-1), math.Inf(1)
	b.forConstraints(sa.delay, sb.delay, sa.norm, sb.norm, func(_ constraint, ia, ib rctree.Interval, bd float64) {
		if lo := ib.Hi - ia.Lo - bd; lo > xLo {
			xLo = lo
		}
		if hi := ib.Lo - ia.Hi + bd; hi < xHi {
			xHi = hi
		}
	})
	gap = max(xLo-xHi, 0)
	d := geom.DistRR(sa.rect, sb.rect)
	cost = d

	// Tertiary criterion: the merge applies a single shift X to all shared
	// union roots, so if the per-root required shifts disagree, whatever X
	// is chosen commits offsets away from their registered values. The
	// spread of the required shifts measures that inevitable drift; small
	// spread keeps the global offset system consistent and cheap.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range b.plan.roots {
		ia, ib := sa.norm[r.a], sb.norm[r.b]
		s := (ib.Lo+ib.Hi)/2 - (ia.Lo+ia.Hi)/2
		lo = min(lo, s)
		hi = max(hi, s)
	}
	if hi > lo {
		misalign = hi - lo
	}

	// Snaking excess: wire beyond d needed to shift X into the hard window.
	capA, capB := na.Cap, nb.Cap
	x0 := -m.WireDelay(d, capB)
	xd := m.WireDelay(d, capA)
	switch {
	case xHi < x0:
		cost += max(m.ExtendForDelay(capB, -xHi), d) - d
	case xLo > xd:
		cost += max(m.ExtendForDelay(capA, xLo), d) - d
	default:
		// Prefer keeping a wide residual window: subtract the overlap width
		// mapped to split units, weighted well below one wire unit so it
		// only breaks ties among near-equal costs.
		overlap := min(xHi, xd) - max(xLo, x0)
		slope := m.WireDelay(d, capA) + m.WireDelay(d, capB)
		if d > 0 && slope > 0 && !math.IsInf(overlap, 1) {
			cost -= 0.01 * d * min(overlap/slope, 1)
		}
	}
	return gap, cost, misalign
}

// jointSamples is the per-axis sample count of jointResolve's coarse grid.
const jointSamples = 13

// jointResolve pins the deferred splits of na and nb so the hard windows of
// the upcoming merge intersect if at all possible, minimizing
// (infeasibility gap, committed cost) lexicographically: a coarse grid
// search followed by alternating golden-section polish per axis. The
// constraint layout is built once per search (b.plan), and each side is
// evaluated once per split (b.splitsA/b.splitsB): the coarse grid pairs
// jointSamples evaluations per axis, and a golden pass evaluates its fixed
// side once.
func (b *builder) jointResolve(na, nb *ctree.Node) {
	b.layout(na, nb, true)
	la, lb := &b.plan.a, &b.plan.b
	aLo, aHi := na.SplitRange()
	bLo, bHi := nb.SplitRange()
	evA, evB := &b.splitsA, &b.splitsB
	b.evalSplit(na, mid(aLo, aHi), &evA[0], la)
	b.evalSplit(nb, mid(bLo, bHi), &evB[0], lb)
	bestA, bestB := evA[0].e, evB[0].e
	bestGap, bestCost, bestMis := b.splitCost(na, nb, &evA[0], &evB[0])

	consider := func(ea, eb *splitEval) {
		gap, cost, mis := b.splitCost(na, nb, ea, eb)
		epsG := 1e-9 * (1 + bestGap)
		epsC := 1e-6 * (1 + math.Abs(bestCost))
		switch {
		case gap < bestGap-epsG,
			gap <= bestGap+epsG && cost < bestCost-epsC,
			gap <= bestGap+epsG && cost <= bestCost+epsC && mis < bestMis:
			bestGap, bestCost, bestMis = gap, cost, mis
			bestA, bestB = ea.e, eb.e
		}
	}

	// samples evaluates n at the coarse samples of [lo, hi] into dst and
	// returns the filled prefix.
	samples := func(n *ctree.Node, lo, hi float64, dst *[jointSamples]splitEval, ps *planSide) []splitEval {
		if hi-lo <= 0 {
			b.evalSplit(n, lo, &dst[0], ps)
			return dst[:1]
		}
		for i := range dst {
			b.evalSplit(n, lo+(hi-lo)*float64(i)/float64(jointSamples-1), &dst[i], ps)
		}
		return dst[:]
	}
	gridA := samples(na, aLo, aHi, evA, la)
	gridB := samples(nb, bLo, bHi, evB, lb)
	for i := range gridA {
		for j := range gridB {
			consider(&gridA[i], &gridB[j])
		}
	}

	// Alternating golden-section polish per axis, on the same lexicographic
	// (gap, cost, misalignment) criterion.
	golden := func(lo, hi float64, f func(float64) (float64, float64, float64)) float64 {
		if hi-lo <= 0 {
			return lo
		}
		const phi = 0.6180339887498949
		x1 := hi - phi*(hi-lo)
		x2 := lo + phi*(hi-lo)
		f1g, f1c, f1m := f(x1)
		f2g, f2c, f2m := f(x2)
		better := func(g1, c1, m1, g2, c2, m2 float64) bool {
			if g1 != g2 {
				return g1 < g2
			}
			if c1 != c2 {
				return c1 < c2
			}
			return m1 < m2
		}
		for it := 0; it < 40 && hi-lo > 1e-9*(1+hi); it++ {
			if better(f1g, f1c, f1m, f2g, f2c, f2m) {
				hi, x2, f2g, f2c, f2m = x2, x1, f1g, f1c, f1m
				x1 = hi - phi*(hi-lo)
				f1g, f1c, f1m = f(x1)
			} else {
				lo, x1, f1g, f1c, f1m = x1, x2, f2g, f2c, f2m
				x2 = lo + phi*(hi-lo)
				f2g, f2c, f2m = f(x2)
			}
		}
		return mid(lo, hi)
	}
	// A golden pass is a pure function of its fixed side's split: the search
	// mutates no node and no registry. So when an axis' fixed split has not
	// moved since that axis' previous pass (bitwise), the pass's result is
	// reused. It is still evaluated and considered, so the sequence of
	// accept/reject decisions is the same as running the pass again.
	type pass struct {
		run   bool
		fixed uint64 // math.Float64bits of the fixed split
		e     float64
	}
	var passA, passB pass
	for round := 0; round < 2; round++ {
		if na.Deferred {
			fixed, vary := &evB[0], &evA[0]
			b.evalSplit(nb, bestB, fixed, lb)
			if bits := math.Float64bits(bestB); !passA.run || passA.fixed != bits {
				passA = pass{run: true, fixed: bits, e: golden(aLo, aHi, func(e float64) (float64, float64, float64) {
					b.evalSplit(na, e, vary, la)
					return b.splitCost(na, nb, vary, fixed)
				})}
			}
			b.evalSplit(na, passA.e, vary, la)
			consider(vary, fixed)
		}
		if nb.Deferred {
			fixed, vary := &evA[0], &evB[0]
			b.evalSplit(na, bestA, fixed, la)
			if bits := math.Float64bits(bestA); !passB.run || passB.fixed != bits {
				passB = pass{run: true, fixed: bits, e: golden(bLo, bHi, func(e float64) (float64, float64, float64) {
					b.evalSplit(nb, e, vary, lb)
					return b.splitCost(na, nb, fixed, vary)
				})}
			}
			b.evalSplit(nb, passB.e, vary, lb)
			consider(fixed, vary)
		}
	}

	b.resolve(na, bestA)
	b.resolve(nb, bestB)
}

// splitWindow maps the X-shift window [xLo, xHi] (possibly infinite) into
// split space for a merge across distance d. Without snaking it returns the
// feasible split window (eLo, eHi, false) ⊆ [0, d] — width zero for exact
// merges, positive width when slack remains (the node then stays deferred
// over a sub-SDR). When the window lies outside the achievable span it
// returns the minimal committed snaked lengths (ea, eb, true).
func (b *builder) splitWindow(na, nb *ctree.Node, d, xLo, xHi float64, compromised bool) (float64, float64, bool) {
	m := b.opt.Model
	if compromised && d > 0 {
		// The window is a least-violation compromise of conflicting
		// constraints. Honoring it through moderate snaking keeps the
		// violation small, but spending extreme wire on an already
		// unattainable target is pointless: beyond the sneak cost cap,
		// clamp into the achievable span and accept the larger violation.
		x0 := -m.WireDelay(d, nb.Cap)
		xd := m.WireDelay(d, na.Cap)
		budget := sneakCostCap * (d + 1)
		switch {
		case xLo > xd && m.ExtendForDelay(na.Cap, min(xLo, xHi))-d > budget,
			xHi < x0 && m.ExtendForDelay(nb.Cap, -max(xHi, xLo))-d > budget:
			x := min(max(min(xLo, xHi), x0), xd)
			xLo, xHi = x, x
		default:
			// Normalize the possibly inverted compromise range.
			if xLo > xHi {
				xLo, xHi = xHi, xLo
			}
		}
	}
	if b.opt.EndpointSplit && math.IsInf(xLo, -1) && math.IsInf(xHi, 1) {
		// Ablation: unconstrained merges commit the e=0 endpoint instead of
		// keeping the whole shortest-distance region.
		return 0, 0, false
	}

	if d <= 0 {
		switch {
		case xLo > 0:
			return max(m.ExtendForDelay(na.Cap, xLo), d), 0, true
		case xHi < 0:
			return 0, max(m.ExtendForDelay(nb.Cap, -xHi), d), true
		default:
			return 0, 0, false
		}
	}

	x0 := -m.WireDelay(d, nb.Cap) // X at e=0
	xd := m.WireDelay(d, na.Cap)  // X at e=d
	switch {
	case xHi < x0:
		// Must shift below what the span allows: all wire on B plus snake.
		return 0, max(m.ExtendForDelay(nb.Cap, -xHi), d), true
	case xLo > xd:
		return max(m.ExtendForDelay(na.Cap, xLo), d), 0, true
	default:
		eLo, eHi := 0.0, d
		if xLo > x0 {
			eLo = m.SplitForDiff(d, na.Cap, nb.Cap, xLo)
		}
		if xHi < xd {
			eHi = m.SplitForDiff(d, na.Cap, nb.Cap, xHi)
		}
		eLo = min(max(eLo, 0), d)
		eHi = min(max(eHi, eLo), d)
		return eLo, eHi, false
	}
}
