package core

import (
	"slices"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
)

// splitPlan is the layout of one merge: where every hard window the window
// walk (windows) enumerates reads its two intervals, and how each operand's
// groups are evaluated at a candidate split. It depends only on the
// operands' group lists (ctree.(*Node).Groups), their children's and the
// registry. A deferred operand's delay set lists, at every split, the groups
// of its Deferral record in ascending order (Resolve merges the children's
// sets, whose union that list is), and the registry changes only when a
// node commits, so neither a split search nor a sneak moves the layout.
// jointResolve lays it out once per search and evaluates every candidate
// split from it; intersectWindows lays it out again after the resolves have
// registered their offsets.
type splitPlan struct {
	// a and b lay out the two sides. They are laid out only when asked for
	// (see layout) and are stale otherwise.
	a, b planSide
	// raw lists the shared raw groups, ascending, with their positions in
	// the two delay sets.
	raw []planPair
	// roots lists the union roots present on both sides, ascending, with
	// their slots in the two normalized sets.
	roots []planPair
}

// planPair locates one constraint: id is its raw group or union root, a and
// b its positions on the two sides.
type planPair struct {
	id   int
	a, b int32
}

// planSide is one operand's layout: pos[i] lays out position i of the
// operand's delay set, its i-th group. roots lists the side's distinct union
// roots, ascending: slot s is roots[s].
type planSide struct {
	pos   []planPos
	roots []int32
	seen  []bool // build scratch, one per slot
}

// planPos lays out one group of an operand. The group sits in union-root
// slot slot at registry offset off; first marks the lowest group of its
// root, whose interval starts the slot instead of widening it. For a
// deferred operand, l and r locate the intervals of its left and right child
// that merge into the group's interval at every split (−1 where that child
// lacks the group).
type planPos struct {
	off   float64
	slot  int32
	l, r  int32
	first bool
}

// splitEval is one merge operand evaluated at a candidate split e: the
// per-group delays it would commit (in group order), those delays on the
// registry-normalized scale (one interval per union-root slot of the
// operand's plan side) with each slot's midpoint, and its placement
// rectangle. Each depends on that operand's split alone, so the split
// search evaluates every candidate once and pairs it with many partners.
// initSplits carves the buffers once per builder, sized for the instance's
// group count, and every search reuses them.
type splitEval struct {
	e     float64
	delay []rctree.Interval // buf for a deferred operand, else its committed set
	norm  []rctree.Interval
	mid   []float64
	rect  geom.Rect
	buf   []rctree.Interval
}

// initScratch sizes the plan for n groups.
func (p *splitPlan) initScratch(n int) {
	p.a.initScratch(n)
	p.b.initScratch(n)
	p.raw = make([]planPair, 0, n)
	p.roots = make([]planPair, 0, n)
}

func (s *planSide) initScratch(n int) {
	s.pos = make([]planPos, 0, n)
	s.roots = make([]int32, 0, n)
	s.seen = make([]bool, n)
}

// layout builds b.plan for a merge of na and nb against the registry. The
// sides are laid out only when normalized is set: the split search always
// needs them (it evaluates deferred operands from them, and its
// misalignment term pairs union roots), intersectWindows only under the
// registry leash, which every build but a SingleGroup one applies.
func (b *builder) layout(na, nb *ctree.Node, normalized bool) {
	p := &b.plan
	p.raw = appendShared(p.raw[:0], na.Groups(), nb.Groups())
	if !normalized {
		return
	}
	p.a.build(b.uf, na)
	p.b.build(b.uf, nb)
	p.roots = appendShared(p.roots[:0], p.a.roots, p.b.roots)
}

// appendShared appends to dst, in ascending order, every value present in
// both of the ascending lists a and b, with its positions in each.
func appendShared(dst []planPair, a, b []int32) []planPair {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, planPair{id: int(a[i]), a: int32(i), b: int32(j)})
			i++
			j++
		}
	}
	return dst
}

// build lays out operand n as this side. A deferred operand's groups are
// the ascending union of its children's, so one merge walk over the
// children's group lists locates the intervals feeding each group.
func (s *planSide) build(u *groupUF, n *ctree.Node) {
	s.pos, s.roots = s.pos[:0], s.roots[:0]
	for _, g := range n.Groups() {
		r, off := u.find(int(g))
		s.pos = append(s.pos, planPos{off: off, slot: int32(r)}) // the root for now; its slot below
		s.roots = append(s.roots, int32(r))
	}
	slices.Sort(s.roots)
	s.roots = slices.Compact(s.roots)
	clear(s.seen[:len(s.roots)])
	for i := range s.pos {
		p := &s.pos[i]
		k, _ := slices.BinarySearch(s.roots, p.slot)
		p.slot, p.first = int32(k), !s.seen[k]
		s.seen[k] = true
	}
	if n.Def == nil {
		return
	}
	lg, rg := n.Left.Delay.Groups, n.Right.Delay.Groups
	i, j := 0, 0
	for k, g := range n.Def.Groups {
		p := &s.pos[k]
		p.l, p.r = -1, -1
		if i < len(lg) && lg[i] == g {
			p.l, i = int32(i), i+1
		}
		if j < len(rg) && rg[j] == g {
			p.r, j = int32(j), j+1
		}
	}
}

// fold folds iv, the delay interval of the group p lays out, into the
// group's slot of dst on the registry's normalized (offset-corrected)
// scale, and returns the slot's interval so far.
func (p planPos) fold(dst []rctree.Interval, iv rctree.Interval) rctree.Interval {
	v := iv.Shift(-p.off)
	if !p.first {
		v = rctree.Cover(dst[p.slot], v)
	}
	dst[p.slot] = v
	return v
}

// normalize writes ivs, the delays of this side's operand in group order,
// into dst on the normalized scale: slot s covers the intervals of root
// roots[s]'s groups, each shifted by minus its offset, in group order. dst
// holds at least one interval per slot.
func (s *planSide) normalize(dst, ivs []rctree.Interval) {
	for i, iv := range ivs {
		s.pos[i].fold(dst, iv)
	}
}

// eval evaluates operand n, laid out as this side, at split e into ev. A
// deferred operand is evaluated in one pass over its groups: each group's
// interval is shifted and covered from the child intervals the layout
// names, written to ev.delay, and folded into its normalized slot and that
// slot's midpoint. The shifts and covers are those of ctree.Node.Resolve
// (rctree.MergeDelaysInto), in the same order, so ev.delay and ev.rect are
// bitwise what Resolve at e commits. A resolved operand reads its committed
// set and region and ignores e.
func (s *planSide) eval(m rctree.Model, n *ctree.Node, e float64, ev *splitEval) {
	ev.e = e
	norm, mid := ev.norm[:len(s.roots)], ev.mid[:len(s.roots)]
	ev.norm, ev.mid = norm, mid
	if n.Def == nil {
		ev.delay, ev.rect = n.Delay.Ivs, n.Region
		s.normalize(norm, ev.delay)
		for k, v := range norm {
			mid[k] = (v.Lo + v.Hi) / 2
		}
		return
	}
	l, r := n.Left, n.Right
	wl, wr := m.WireDelay(e, l.Cap), m.WireDelay(n.Def.D-e, r.Cap)
	li, ri := l.Delay.Ivs, r.Delay.Ivs
	delay := ev.buf[:len(s.pos)]
	for i, p := range s.pos {
		var iv rctree.Interval
		switch {
		case p.r < 0:
			iv = li[p.l].Shift(wl)
		case p.l < 0:
			iv = ri[p.r].Shift(wr)
		default:
			iv = rctree.Cover(li[p.l].Shift(wl), ri[p.r].Shift(wr))
		}
		delay[i] = iv
		v := p.fold(norm, iv)
		mid[p.slot] = (v.Lo + v.Hi) / 2
	}
	ev.delay = delay
	ev.rect = geom.MergeLocus(l.Region, r.Region, e, n.Def.D-e)
}
