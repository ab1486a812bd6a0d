package rctree

// Interval is a closed range of sink delays [Lo, Hi] within a subtree,
// measured from the subtree root. Width is the subtree's internal skew.
type Interval struct {
	Lo, Hi float64
}

// PointInterval returns the degenerate interval {t}.
func PointInterval(t float64) Interval { return Interval{Lo: t, Hi: t} }

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Shift returns the interval translated by x.
func (iv Interval) Shift(x float64) Interval { return Interval{Lo: iv.Lo + x, Hi: iv.Hi + x} }

// Cover returns the smallest interval containing both a and b.
func Cover(a, b Interval) Interval {
	return Interval{Lo: min(a.Lo, b.Lo), Hi: max(a.Hi, b.Hi)}
}

// Merge holds the outcome of a merge-point solve: the committed edge lengths
// from the new root to the two child roots. Snaked is true when ea+eb
// exceeds the geometric distance d (wire snaking / "sneaking").
type Merge struct {
	Ea, Eb float64
	Snaked bool
}

// Total returns Ea+Eb, the wirelength committed by the merge.
func (mg Merge) Total() float64 { return mg.Ea + mg.Eb }

// clampSplit clamps e into [0, d].
func clampSplit(e, d float64) float64 {
	if e < 0 {
		return 0
	}
	if e > d {
		return d
	}
	return e
}

// Balance solves the classic exact-zero-skew merge (Tsay): subtree A with
// root-to-sink delay ta and load ca merges with subtree B (tb, cb) across
// geometric distance d. It returns the minimal-wirelength edge lengths such
// that ta + WireDelay(ea,ca) == tb + WireDelay(eb,cb), snaking the faster
// side when the balance point falls outside the segment.
func Balance(m Model, d, ta, ca, tb, cb float64) Merge {
	return BalanceTarget(m, d, ta, ca, tb, cb, 0)
}

// BalanceTarget generalizes Balance to a prescribed skew target:
// (ta + WireDelay(ea,ca)) − (tb + WireDelay(eb,cb)) == target.
func BalanceTarget(m Model, d, ta, ca, tb, cb, target float64) Merge {
	if d <= 0 {
		// Roots coincide; any needed difference comes from snaking alone.
		diff := ta - tb - target // how much A leads (is slower) already
		if diff > 0 {
			return Merge{Ea: 0, Eb: m.ExtendForDelay(cb, diff), Snaked: true}
		}
		if diff < 0 {
			return Merge{Ea: m.ExtendForDelay(ca, -diff), Eb: 0, Snaked: true}
		}
		return Merge{}
	}
	// Want X(e) = WireDelay(e,ca) − WireDelay(d−e,cb) = tb − ta + target.
	e := m.SplitForDiff(d, ca, cb, tb-ta+target)
	if e >= 0 && e <= d {
		return Merge{Ea: e, Eb: d - e}
	}
	if e < 0 {
		// Even with all wire on B's side, A is still too slow: extend B.
		eb := m.ExtendForDelay(cb, ta-tb-target)
		return Merge{Ea: 0, Eb: max(eb, d), Snaked: true}
	}
	// Symmetric: extend A.
	ea := m.ExtendForDelay(ca, tb-ta+target)
	return Merge{Ea: max(ea, d), Eb: 0, Snaked: true}
}

// BalanceClamped returns the no-snake merge closest to delay balance: the
// split is the zero-skew balance point clamped into [0, d], so the committed
// wirelength is always exactly d. Used for merges with no skew constraint
// between the two sides (different sink groups), where any residual delay
// difference simply becomes the inter-group offset.
func BalanceClamped(m Model, d, ta, ca, tb, cb float64) Merge {
	if d <= 0 {
		return Merge{}
	}
	e := clampSplit(m.SplitForDiff(d, ca, cb, tb-ta), d)
	return Merge{Ea: e, Eb: d - e}
}

// BoundedBalance solves a bounded-skew (BST-style) merge. Subtree A's sinks
// span delay interval ia (from A's root) with load ca; likewise B. The merged
// subtree's sink-delay spread must not exceed bound. The solver picks the
// minimum-wirelength merge whose spread is within the bound, preferring —
// among equal-wirelength solutions — the one closest to midpoint alignment
// (which minimizes the spread and thus future snaking).
//
// Feasibility: a shift X = WireDelay(ea,ca) − WireDelay(eb,cb) keeps the
// merged spread ≤ bound iff X ∈ [ib.Hi − ia.Lo − bound, ib.Lo − ia.Hi + bound],
// which is non-empty whenever (ia.Width()+ib.Width())/2 ≤ bound. Children
// built under the same bound always satisfy this. If the desired window is
// empty (bound tighter than the children allow), the solver falls back to
// midpoint alignment, minimizing the resulting spread.
func BoundedBalance(m Model, d float64, ia Interval, ca float64, ib Interval, cb, bound float64) Merge {
	xLo := ib.Hi - ia.Lo - bound
	xHi := ib.Lo - ia.Hi + bound
	xMid := (ib.Lo+ib.Hi)/2 - (ia.Lo+ia.Hi)/2 // midpoint alignment
	if xLo > xHi {
		// Infeasible bound; minimize spread instead.
		xLo, xHi = xMid, xMid
	}
	want := clampSplit(xMid-xLo, xHi-xLo) + xLo // xMid clamped into [xLo,xHi]

	if d <= 0 {
		// Coincident roots: any non-zero X is pure snake, so take the
		// feasible X of least magnitude (wire first, spread second).
		x := clampSplit(0-xLo, xHi-xLo) + xLo
		if x > 0 {
			return Merge{Ea: m.ExtendForDelay(ca, x), Eb: 0, Snaked: true}
		}
		if x < 0 {
			return Merge{Ea: 0, Eb: m.ExtendForDelay(cb, -x), Snaked: true}
		}
		return Merge{}
	}

	// Achievable X without snaking is [X(0), X(d)].
	x0 := -m.WireDelay(d, cb)
	xd := m.WireDelay(d, ca)
	switch {
	case xHi < x0:
		// Must slow B beyond the full span: ea=0, eb>d with −WireDelay(eb,cb)=xHi.
		eb := m.ExtendForDelay(cb, -xHi)
		return Merge{Ea: 0, Eb: max(eb, d), Snaked: true}
	case xLo > xd:
		ea := m.ExtendForDelay(ca, xLo)
		return Merge{Ea: max(ea, d), Eb: 0, Snaked: true}
	default:
		// No snaking needed: clamp the preferred X into both windows.
		x := clampSplit(want-x0, min(xHi, xd)-x0) + x0
		if x < xLo { // want below window: take window floor (≥ x0 here)
			x = xLo
		}
		e := clampSplit(m.SplitForDiff(d, ca, cb, x), d)
		return Merge{Ea: e, Eb: d - e}
	}
}

// MergedInterval returns the sink-delay interval of a merged subtree given
// the children intervals and the committed edge lengths.
func MergedInterval(m Model, mg Merge, ia Interval, ca float64, ib Interval, cb float64) Interval {
	wa := m.WireDelay(mg.Ea, ca)
	wb := m.WireDelay(mg.Eb, cb)
	return Cover(ia.Shift(wa), ib.Shift(wb))
}
