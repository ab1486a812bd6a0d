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

// windows intersects the hard windows of the merge b.plan lays out, between
// operands whose delays, in group order, are da and db:
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
// It returns the intersected X window [xLo, xHi] and the constraints that
// set its two bounds (the zero constraint for a bound no window sets). va
// and vb, when non-nil, hold da and db already on the normalized scale (the
// split search normalizes each candidate split once and pairs it with many
// partners); nil normalizes into the builder's scratch when the union-root
// pass runs.
func (b *builder) windows(da, db, va, vb []rctree.Interval) (xLo, xHi float64, cLo, cHi constraint) {
	p := &b.plan
	xLo, xHi = math.Inf(-1), math.Inf(1)
	bd := b.opt.IntraSkewBound
	for _, s := range p.raw {
		ia, ib := da[s.a], db[s.b]
		if lo := ib.Hi - ia.Lo - bd; lo > xLo {
			xLo, cLo = lo, constraint{raw: true, id: s.id}
		}
		if hi := ib.Lo - ia.Hi + bd; hi < xHi {
			xHi, cHi = hi, constraint{raw: true, id: s.id}
		}
	}
	w := b.interBound()
	if math.IsInf(w, 1) {
		return xLo, xHi, cLo, cHi
	}
	if va == nil {
		va, vb = b.normA[:len(p.a.roots)], b.normB[:len(p.b.roots)]
		p.a.normalize(va, da)
		p.b.normalize(vb, db)
	}
	bd += w
	for _, r := range p.roots {
		ia, ib := va[r.a], vb[r.b]
		if lo := ib.Hi - ia.Lo - bd; lo > xLo {
			xLo, cLo = lo, constraint{id: r.id}
		}
		if hi := ib.Lo - ia.Hi + bd; hi < xHi {
			xHi, cHi = hi, constraint{id: r.id}
		}
	}
	return xLo, xHi, cLo, cHi
}

// overallOf returns the node's overall delay interval; for deferred nodes it
// evaluates the midpoint split without committing it.
func (b *builder) overallOf(n *ctree.Node) rctree.Interval {
	if n.Def == nil {
		return n.OverallDelay()
	}
	m := b.opt.Model
	e := mid(n.SplitRange())
	l := n.Left.OverallDelay().Shift(m.WireDelay(e, n.Left.Cap))
	r := n.Right.OverallDelay().Shift(m.WireDelay(n.Def.D-e, n.Right.Cap))
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
	case ctree.SharesGroup(na.Groups(), nb.Groups()):
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
	shared := ctree.SharesGroup(na.Groups(), nb.Groups())
	b.stats.Merges++
	switch {
	case !shared:
		b.stats.CrossGroup++
	case len(na.Groups()) == 1 && len(nb.Groups()) == 1:
		b.stats.SameGroup++
	default:
		b.stats.Shared++
	}

	// Pin any deferred splits. With constraints between the pair the splits
	// are chosen jointly so the windows intersect at the least committed
	// cost; otherwise the closest approach decides.
	if na.Def != nil || nb.Def != nil {
		if shared || (!math.IsInf(b.interBound(), 1) && b.relatedRoots(na, nb)) {
			b.jointResolve(na, nb)
		} else {
			qa, qb := geom.ClosestPoints(na.ActiveRegion(), nb.ActiveRegion())
			if na.Def != nil {
				b.resolve(na, geom.DistRP(na.Left.Region, qa))
			}
			if nb.Def != nil {
				b.resolve(nb, geom.DistRP(nb.Left.Region, qb))
			}
		}
	}

	// Intersect the hard windows (shared raw groups + inter-group window),
	// wire-sneaking when they conflict (thesis Fig. 5 / Eqs. 5.1–5.3).
	xLo, xHi, compromised := b.intersectWindows(na, nb)

	d := geom.DistRR(na.Region, nb.Region)
	*c = ctree.Node{Left: na, Right: nb, Cap: na.Cap + nb.Cap}

	eLo, eHi, snaked := b.splitWindow(na, nb, d, xLo, xHi, compromised)
	if snaked {
		b.stats.MergeSnakes++
	}
	const widthEps = 1e-9
	if !snaked && eHi-eLo > widthEps*(1+d) {
		// Keep the whole feasible sub-region of the SDR; the split commits
		// when this node is next merged (or at the tree root).
		c.Def = b.deferrals.add(ctree.NewDeferral(na, nb, d, eLo, eHi, geom.SDR(na.Region, nb.Region, d, eLo, eHi)))
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

// splitCost scores the candidate splits sa of an operand with downstream
// capacitance capA and sb of one with capB, d apart, against the upcoming
// merge. It returns the infeasibility gap (ps) of the intersected
// hard-window system (0 when the windows intersect), the cost the merge
// would commit — the candidate distance, plus any snaking excess needed to
// reach the window, minus a small preference for wide residual windows —
// and the misalignment of the shared union roots' required shifts.
//
// Snaking only adds wire and the residual-window preference subtracts at
// most 0.01·d, so every cost is at least 0.99·d up to rounding:
// jointResolve's skip rule rests on that bound.
func (b *builder) splitCost(capA, capB, d float64, sa, sb *splitEval) (gap, cost, misalign float64) {
	xLo, xHi, _, _ := b.windows(sa.delay, sb.delay, sa.norm, sb.norm)
	gap = max(xLo-xHi, 0)
	cost = d

	// Tertiary criterion: the merge applies a single shift X to all shared
	// union roots, so if the per-root required shifts disagree, whatever X
	// is chosen commits offsets away from their registered values. The
	// spread of the required shifts measures that inevitable drift; small
	// spread keeps the global offset system consistent and cheap.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range b.plan.roots {
		s := sb.mid[r.b] - sa.mid[r.a]
		lo = min(lo, s)
		hi = max(hi, s)
	}
	if hi > lo {
		misalign = hi - lo
	}

	// Snaking excess: wire beyond d needed to shift X into the hard window.
	m := b.opt.Model
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
		// only breaks ties among near-equal costs. x0 is the exact negation
		// of WireDelay(d, capB), so xd − x0 is the X span of the split.
		overlap := min(xHi, xd) - max(xLo, x0)
		slope := xd - x0
		if d > 0 && slope > 0 && !math.IsInf(overlap, 1) {
			cost -= float64(0.01 * d * min(overlap/slope, 1))
		}
	}
	return gap, cost, misalign
}

// jointSamples is the per-axis sample count of jointResolve's coarse grid.
const jointSamples = 13

// jointResolve pins the deferred splits of na and nb so the hard windows of
// the upcoming merge intersect if at all possible, minimizing
// (infeasibility gap, committed cost) lexicographically: a coarse grid
// search followed by alternating golden-section polish per axis. It returns
// the splits it pinned (the split range's start for a resolved operand).
//
// The plan is laid out once per search (b.plan): besides the constraints,
// it names, for each group of a deferred operand, the child intervals that
// merge into it, so an evaluation at a split is one pass over the
// operand's groups. Each side is evaluated once per split (b.splitsA,
// b.splitsB): the coarse grid pairs jointSamples evaluations per axis, and
// a golden pass evaluates its fixed side once.
//
// consider skips a candidate pair unscored when the incumbent's gap is
// within its tolerance (bestGap ≤ epsG) and 0.98·d > bestCost + epsC for
// the pair's distance d. Such a pair cannot pass any clause of consider:
// every cost splitCost returns is at least 0.99·d up to rounding, and no
// gap is below 0, so it can neither lower the gap by more than epsG nor
// come within epsC of the incumbent's cost. The skip therefore leaves the
// sequence of accept decisions, and the splits pinned, exactly as scoring
// every pair would. It prunes 66% of the grid pairs of a Table II build.
// The golden passes compare exact values and are not pruned.
func (b *builder) jointResolve(na, nb *ctree.Node) (ea, eb float64) {
	if b.splitsA[0].buf == nil {
		b.initSplits()
	}
	b.layout(na, nb, true)
	la, lb := &b.plan.a, &b.plan.b
	m := b.opt.Model
	aLo, aHi := na.SplitRange()
	bLo, bHi := nb.SplitRange()
	evA, evB := &b.splitsA, &b.splitsB
	la.eval(m, na, mid(aLo, aHi), &evA[0])
	lb.eval(m, nb, mid(bLo, bHi), &evB[0])
	score := func(sa, sb *splitEval) (float64, float64, float64) {
		return b.splitCost(na.Cap, nb.Cap, geom.DistRR(sa.rect, sb.rect), sa, sb)
	}
	bestA, bestB := evA[0].e, evB[0].e
	bestGap, bestCost, bestMis := score(&evA[0], &evB[0])

	consider := func(sa, sb *splitEval) {
		d := geom.DistRR(sa.rect, sb.rect)
		epsG := float64(1e-9 * (1 + bestGap))
		epsC := float64(1e-6 * (1 + math.Abs(bestCost)))
		if bestGap <= epsG && 0.98*d > bestCost+epsC {
			return
		}
		gap, cost, mis := b.splitCost(na.Cap, nb.Cap, d, sa, sb)
		switch {
		case gap < bestGap-epsG,
			gap <= bestGap+epsG && cost < bestCost-epsC,
			gap <= bestGap+epsG && cost <= bestCost+epsC && mis < bestMis:
			bestGap, bestCost, bestMis = gap, cost, mis
			bestA, bestB = sa.e, sb.e
		}
	}

	// samples evaluates n, laid out as ps, at the coarse samples of
	// [lo, hi] into dst and returns the filled prefix.
	samples := func(n *ctree.Node, lo, hi float64, dst *[jointSamples]splitEval, ps *planSide) []splitEval {
		if hi-lo <= 0 {
			ps.eval(m, n, lo, &dst[0])
			return dst[:1]
		}
		for i := range dst {
			ps.eval(m, n, lo+(hi-lo)*float64(i)/float64(jointSamples-1), &dst[i])
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
		x1 := hi - float64(phi*(hi-lo))
		x2 := lo + float64(phi*(hi-lo))
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
				x1 = hi - float64(phi*(hi-lo))
				f1g, f1c, f1m = f(x1)
			} else {
				lo, x1, f1g, f1c, f1m = x1, x2, f2g, f2c, f2m
				x2 = lo + float64(phi*(hi-lo))
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
		if na.Def != nil {
			fixed, vary := &evB[0], &evA[0]
			lb.eval(m, nb, bestB, fixed)
			if bits := math.Float64bits(bestB); !passA.run || passA.fixed != bits {
				passA = pass{run: true, fixed: bits, e: golden(aLo, aHi, func(e float64) (float64, float64, float64) {
					la.eval(m, na, e, vary)
					return score(vary, fixed)
				})}
			}
			la.eval(m, na, passA.e, vary)
			consider(vary, fixed)
		}
		if nb.Def != nil {
			fixed, vary := &evA[0], &evB[0]
			la.eval(m, na, bestA, fixed)
			if bits := math.Float64bits(bestA); !passB.run || passB.fixed != bits {
				passB = pass{run: true, fixed: bits, e: golden(bLo, bHi, func(e float64) (float64, float64, float64) {
					lb.eval(m, nb, e, vary)
					return score(fixed, vary)
				})}
			}
			lb.eval(m, nb, passB.e, vary)
			consider(fixed, vary)
		}
	}

	b.resolve(na, bestA)
	b.resolve(nb, bestB)
	return bestA, bestB
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
