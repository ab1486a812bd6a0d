package geom

import (
	"fmt"
	"math"
)

// Octagon is a convex region in uv-space bounded in the four octilinear
// directions: u, v, s = u+v and t = u−v. It generalizes Rect (which bounds
// only u and v) and is the natural shape of the shortest-distance region
// (SDR) between two rectangles under the L∞ metric — the "merging region" of
// bounded-skew and associative-skew routing.
//
// The family is closed under intersection and under inflation by an L∞ ball
// (u and v bounds grow by r; s and t bounds grow by 2r). An octagon should
// be canonicalized with Close before geometric queries.
type Octagon struct {
	ULo, UHi float64
	VLo, VHi float64
	SLo, SHi float64 // bounds on u+v
	TLo, THi float64 // bounds on u−v
}

// OctFromRect lifts a rectangle to an octagon with tight diagonal bounds.
func OctFromRect(r Rect) Octagon {
	return Octagon{
		ULo: r.ULo, UHi: r.UHi,
		VLo: r.VLo, VHi: r.VHi,
		SLo: r.ULo + r.VLo, SHi: r.UHi + r.VHi,
		TLo: r.ULo - r.VHi, THi: r.UHi - r.VLo,
	}
}

// OctFromUV returns the degenerate octagon holding one point.
func OctFromUV(q UV) Octagon { return OctFromRect(RectFromUV(q)) }

// IsEmpty reports whether the (closed) octagon contains no point. Call Close
// first when the octagon was built by intersection.
func (o Octagon) IsEmpty() bool {
	return o.ULo > o.UHi || o.VLo > o.VHi || o.SLo > o.SHi || o.TLo > o.THi
}

// Close tightens all eight bounds to their canonical (mutually consistent)
// values. For the two-variable octagonal constraint system the fixed point
// is reached within a few passes; Close runs three, which property tests
// confirm suffices.
func (o Octagon) Close() Octagon {
	for pass := 0; pass < 3; pass++ {
		// s = u+v and t = u−v derived bounds.
		o.SLo = max(o.SLo, o.ULo+o.VLo)
		o.SHi = min(o.SHi, o.UHi+o.VHi)
		o.TLo = max(o.TLo, o.ULo-o.VHi)
		o.THi = min(o.THi, o.UHi-o.VLo)
		// u = (s+t)/2 and via single sums.
		o.ULo = max(o.ULo, (o.SLo+o.TLo)/2)
		o.UHi = min(o.UHi, (o.SHi+o.THi)/2)
		o.ULo = max(o.ULo, max(o.SLo-o.VHi, o.TLo+o.VLo))
		o.UHi = min(o.UHi, min(o.SHi-o.VLo, o.THi+o.VHi))
		// v = (s−t)/2 and via single sums.
		o.VLo = max(o.VLo, (o.SLo-o.THi)/2)
		o.VHi = min(o.VHi, (o.SHi-o.TLo)/2)
		o.VLo = max(o.VLo, max(o.SLo-o.UHi, o.ULo-o.THi))
		o.VHi = min(o.VHi, min(o.SHi-o.ULo, o.UHi-o.TLo))
	}
	// Snap intervals inverted only by rounding (the derived bounds above can
	// differ from the direct ones in the last bits for degenerate shapes).
	snap(&o.ULo, &o.UHi)
	snap(&o.VLo, &o.VHi)
	snap(&o.SLo, &o.SHi)
	snap(&o.TLo, &o.THi)
	return o
}

// snap collapses an interval inverted by a rounding-level amount to its
// midpoint, leaving genuinely empty intervals untouched.
func snap(lo, hi *float64) {
	if *lo > *hi && *lo-*hi <= 1e-9*(1+math.Abs(*lo)+math.Abs(*hi)) {
		m := (*lo + *hi) / 2
		*lo, *hi = m, m
	}
}

// Bounds returns the octagon's u/v bounding rectangle, dropping the
// diagonal constraints. DistRR over Bounds lower-bounds DistOO, which is
// what spatial-index pruning requires.
func (o Octagon) Bounds() Rect {
	return Rect{ULo: o.ULo, UHi: o.UHi, VLo: o.VLo, VHi: o.VHi}
}

// Inflate returns the Minkowski sum with the L∞ ball of radius r ≥ 0
// (equivalently, the set of points within Manhattan distance r in xy-space).
func (o Octagon) Inflate(r float64) Octagon {
	return Octagon{
		ULo: o.ULo - r, UHi: o.UHi + r,
		VLo: o.VLo - r, VHi: o.VHi + r,
		SLo: o.SLo - 2*r, SHi: o.SHi + 2*r,
		TLo: o.TLo - 2*r, THi: o.THi + 2*r,
	}
}

// IntersectOct intersects two octagons; ok is false when empty.
func IntersectOct(a, b Octagon) (Octagon, bool) {
	out := Octagon{
		ULo: max(a.ULo, b.ULo), UHi: min(a.UHi, b.UHi),
		VLo: max(a.VLo, b.VLo), VHi: min(a.VHi, b.VHi),
		SLo: max(a.SLo, b.SLo), SHi: min(a.SHi, b.SHi),
		TLo: max(a.TLo, b.TLo), THi: min(a.THi, b.THi),
	}.Close()
	return out, !out.IsEmpty()
}

// ContainsUV reports whether q lies in the octagon (boundary inclusive,
// within tol).
func (o Octagon) ContainsUV(q UV, tol float64) bool {
	s, t := q.U+q.V, q.U-q.V
	return q.U >= o.ULo-tol && q.U <= o.UHi+tol &&
		q.V >= o.VLo-tol && q.V <= o.VHi+tol &&
		s >= o.SLo-tol && s <= o.SHi+tol &&
		t >= o.TLo-tol && t <= o.THi+tol
}

// DistOO returns the minimum L∞ distance between two non-empty closed
// octagons: the least r with a.Inflate(r) ∩ b non-empty, which for closed
// operands is the largest of the four per-direction interval gaps (diagonal
// gaps halved, since diagonal bounds grow at twice the inflation rate).
func DistOO(a, b Octagon) float64 {
	du := gap1(a.ULo, a.UHi, b.ULo, b.UHi)
	dv := gap1(a.VLo, a.VHi, b.VLo, b.VHi)
	ds := gap1(a.SLo, a.SHi, b.SLo, b.SHi) / 2
	dt := gap1(a.TLo, a.THi, b.TLo, b.THi) / 2
	return max(max(du, dv), max(ds, dt))
}

// DistOP returns the minimum L∞ distance from octagon o to point q.
func DistOP(o Octagon, q UV) float64 { return DistOO(o, OctFromUV(q)) }

// AnyPoint returns a point of the closed, non-empty octagon, as close to
// pref as the constraints allow (exact for points inside; otherwise a
// boundary point near the projection of pref).
func (o Octagon) AnyPoint(pref UV) UV {
	u := clamp1(pref.U, o.ULo, o.UHi)
	// v must satisfy its own box plus the diagonal bounds at this u.
	vlo := max(o.VLo, max(o.SLo-u, u-o.THi))
	vhi := min(o.VHi, min(o.SHi-u, u-o.TLo))
	if vlo > vhi {
		// u is outside the feasible u-projection (possible only through
		// rounding, since Close makes projections exact): nudge u into the
		// interval where the v-window is non-empty.
		// vlo(u) decreasing pieces vs vhi(u): solve by clamping u against
		// the crossing points of each constraint pair.
		uMin := max(o.ULo, max(o.SLo-o.VHi, o.TLo+o.VLo))
		uMax := min(o.UHi, min(o.SHi-o.VLo, o.THi+o.VHi))
		u = clamp1(u, uMin, uMax)
		vlo = max(o.VLo, max(o.SLo-u, u-o.THi))
		vhi = min(o.VHi, min(o.SHi-u, u-o.TLo))
		if vlo > vhi { // fully degenerate: fall back to the midpoint
			vm := (vlo + vhi) / 2
			return UV{U: u, V: vm}
		}
	}
	return UV{U: u, V: clamp1(pref.V, vlo, vhi)}
}

// ClosestPoints returns a pair (qa ∈ a, qb ∈ b) realizing DistOO(a, b).
func ClosestPoints(a, b Octagon) (UV, UV) {
	r := DistOO(a, b)
	bc := UV{U: (b.ULo + b.UHi) / 2, V: (b.VLo + b.VHi) / 2}
	ia, ok := IntersectOct(a, b.Inflate(r))
	if !ok { // rounding: widen minimally
		ia, _ = IntersectOct(a, b.Inflate(float64(r*(1+1e-12))+1e-9))
	}
	qa := ia.AnyPoint(bc)
	r2 := DistOP(b, qa)
	ib, ok := IntersectOct(b, OctFromUV(qa).Inflate(r2))
	if !ok {
		ib, _ = IntersectOct(b, OctFromUV(qa).Inflate(float64(r2*(1+1e-12))+1e-9))
	}
	qb := ib.AnyPoint(qa)
	return qa, qb
}

// SDR returns the shortest-distance region between rectangles a and b,
// restricted to split parameters e = dist(q, a) in [eLo, eHi] ⊆ [0, d] where
// d = DistRR(a, b): the union over e of MergeLocus(a, b, e, d−e). Every
// point q of the SDR satisfies dist(q,a) + dist(q,b) = d with
// dist(q,a) ∈ [eLo, eHi], so the split a later resolution commits is read
// directly off the chosen point.
func SDR(a, b Rect, d, eLo, eHi float64) Octagon {
	eLo = clamp1(eLo, 0, d)
	eHi = clamp1(eHi, eLo, d)
	// Candidate breakpoints of the piecewise-linear corner trajectories:
	// the range ends and up to four inside it, in an array on the stack.
	var buf [6]float64
	cands := append(buf[:0], eLo, eHi)
	for _, x := range [...]float64{(a.ULo - b.ULo + d) / 2, (b.UHi - a.UHi + d) / 2, (a.VLo - b.VLo + d) / 2, (b.VHi - a.VHi + d) / 2} {
		if x > eLo && x < eHi {
			cands = append(cands, x)
		}
	}

	o := Octagon{
		ULo: math.Inf(1), UHi: math.Inf(-1),
		VLo: math.Inf(1), VHi: math.Inf(-1),
		SLo: math.Inf(1), SHi: math.Inf(-1),
		TLo: math.Inf(1), THi: math.Inf(-1),
	}
	for _, e := range cands {
		r := MergeLocus(a, b, e, d-e)
		o.ULo = min(o.ULo, r.ULo)
		o.UHi = max(o.UHi, r.UHi)
		o.VLo = min(o.VLo, r.VLo)
		o.VHi = max(o.VHi, r.VHi)
		o.SLo = min(o.SLo, r.ULo+r.VLo)
		o.SHi = max(o.SHi, r.UHi+r.VHi)
		o.TLo = min(o.TLo, r.ULo-r.VHi)
		o.THi = max(o.THi, r.UHi-r.VLo)
	}
	return o.Close()
}

// String renders the octagon for diagnostics.
func (o Octagon) String() string {
	if o.IsEmpty() {
		return "Oct(empty)"
	}
	return fmt.Sprintf("Oct(u[%.6g,%.6g] v[%.6g,%.6g] s[%.6g,%.6g] t[%.6g,%.6g])",
		o.ULo, o.UHi, o.VLo, o.VHi, o.SLo, o.SHi, o.TLo, o.THi)
}
