package core

import (
	"slices"

	"repro/internal/ctree"
	"repro/internal/rctree"
)

// splitPlan is the constraint layout of one merge: where every hard window
// forConstraints enumerates reads its two intervals. It depends only on the
// operands' group lists and the registry. A delay set lists its node's
// groups in ascending order at every split (ctree.Node.Delay mirrors
// Groups), and the registry changes only when a node commits, so neither a
// split search nor a sneak moves the layout. jointResolve lays it out once
// per search; intersectWindows lays it out again after the resolves have
// registered their offsets.
type splitPlan struct {
	// a and b lay out the two sides' normalized sets, and roots pairs their
	// slots. They are laid out only when asked for (see layout) and are
	// stale otherwise.
	a, b planSide
	// raw lists the shared raw groups, ascending, with their positions in
	// the two delay sets.
	raw []planPair
	// pcs lists the explicit pair constraints that span the merge, in
	// Options.PairConstraints order.
	pcs []planPC
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

// planPC is a pair constraint delay(J) − delay(I) ∈ [MinPs, MaxPs] with I
// and J on opposite sides: a and b are the positions of the two groups,
// jOnB says J is the b-side group, and mid/half are the range's midpoint
// and half-width.
type planPC struct {
	a, b      int32
	jOnB      bool
	mid, half float64
}

// planSide is one operand's normalization layout. Position i of the side's
// delay set, the node's i-th group, sits in union-root slot slot[i] at
// registry offset off[i]; first[i] marks the lowest group of its root,
// whose interval starts the slot instead of widening it. roots lists the
// side's distinct union roots, ascending: slot s is roots[s].
type planSide struct {
	slot  []int32
	off   []float64
	first []bool
	roots []int32
	seen  []bool // build scratch, one per slot
}

// initScratch sizes the plan for n groups and npc pair constraints.
func (p *splitPlan) initScratch(n, npc int) {
	p.a.initScratch(n)
	p.b.initScratch(n)
	p.raw = make([]planPair, 0, n)
	p.pcs = make([]planPC, 0, 2*npc)
	p.roots = make([]planPair, 0, n)
}

func (s *planSide) initScratch(n int) {
	s.slot = make([]int32, 0, n)
	s.off = make([]float64, 0, n)
	s.first = make([]bool, 0, n)
	s.roots = make([]int32, 0, n)
	s.seen = make([]bool, n)
}

// layout builds b.plan for a merge of na and nb against the registry. The
// union-root part is laid out only when normalized is set: the split search
// always needs it (its misalignment term pairs union roots), intersectWindows
// only under the offset leash.
func (b *builder) layout(na, nb *ctree.Node, normalized bool) {
	p := &b.plan
	ga, gb := na.Groups, nb.Groups
	p.raw = appendShared(p.raw[:0], ga, gb)
	p.pcs = p.pcs[:0]
	for _, pc := range b.opt.PairConstraints {
		mid := (pc.MinPs + pc.MaxPs) / 2
		half := (pc.MaxPs - pc.MinPs) / 2
		if ia, ok := slices.BinarySearch(ga, pc.I); ok {
			if jb, ok := slices.BinarySearch(gb, pc.J); ok {
				p.pcs = append(p.pcs, planPC{a: int32(ia), b: int32(jb), jOnB: true, mid: mid, half: half})
			}
		}
		if ja, ok := slices.BinarySearch(ga, pc.J); ok {
			if ib, ok := slices.BinarySearch(gb, pc.I); ok {
				p.pcs = append(p.pcs, planPC{a: int32(ja), b: int32(ib), mid: mid, half: half})
			}
		}
	}

	if !normalized {
		return
	}
	p.a.build(b.uf, ga)
	p.b.build(b.uf, gb)
	p.roots = appendShared(p.roots[:0], p.a.roots, p.b.roots)
}

// appendShared appends to dst, in ascending order, every value present in
// both of the ascending lists a and b, with its positions in each.
func appendShared[T int | int32](dst []planPair, a, b []T) []planPair {
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

// build lays out a side with the given ascending groups.
func (s *planSide) build(u *groupUF, groups []int) {
	s.slot, s.off = s.slot[:0], s.off[:0]
	for _, g := range groups {
		r, off := u.find(g)
		s.slot = append(s.slot, int32(r)) // the root for now; its slot below
		s.off = append(s.off, off)
	}
	s.roots = append(s.roots[:0], s.slot...)
	slices.Sort(s.roots)
	s.roots = slices.Compact(s.roots)
	clear(s.seen[:len(s.roots)])
	s.first = s.first[:0]
	for i, r := range s.slot {
		k, _ := slices.BinarySearch(s.roots, r)
		s.slot[i] = int32(k)
		s.first = append(s.first, !s.seen[k])
		s.seen[k] = true
	}
}

// normalize writes delay, a delay set of this side, into dst on the
// registry's normalized (offset-corrected) scale: slot s covers the
// intervals of root roots[s]'s groups, each shifted by minus its offset, in
// group order. dst's backing array is reused, and grown when short.
func (s *planSide) normalize(dst []rctree.Interval, delay rctree.DelaySet) []rctree.Interval {
	dst = slices.Grow(dst[:0], len(s.roots))[:len(s.roots)]
	for i, iv := range delay.Ivs {
		v := iv.Shift(-s.off[i])
		if k := s.slot[i]; s.first[i] {
			dst[k] = v
		} else {
			dst[k] = rctree.Cover(dst[k], v)
		}
	}
	return dst
}
