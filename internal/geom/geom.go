// Package geom provides Manhattan-plane geometry for deferred-merge
// clock-tree embedding (DME, BST, AST-DME).
//
// All merging loci are represented in the 45°-rotated coordinate space
//
//	u = x + y,  v = x − y
//
// where the Manhattan (L1) distance of the physical plane becomes the
// Chebyshev (L∞) distance. Under this duality:
//
//   - a point stays a point;
//   - a Manhattan arc (a ±45° segment, the classic DME "merging segment")
//     becomes an axis-parallel segment;
//   - a tilted rectangular region (TRR) becomes an axis-aligned rectangle;
//   - inflating a locus by radius r (Minkowski sum with an L1 ball)
//     becomes growing a rectangle by r on every side;
//   - the intersection of two inflated loci is again a rectangle.
//
// Consequently a single type, Rect, represents every merging locus the
// routing algorithms need, and all constructions are exact.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the physical Manhattan plane.
type Point struct {
	X, Y float64
}

// UV is a location in the 45°-rotated plane (u = x+y, v = x−y).
type UV struct {
	U, V float64
}

// ToUV rotates a physical point into uv-space.
func ToUV(p Point) UV { return UV{U: p.X + p.Y, V: p.X - p.Y} }

// ToXY rotates a uv-space point back to the physical plane.
func ToXY(q UV) Point { return Point{X: (q.U + q.V) / 2, Y: (q.U - q.V) / 2} }

// Dist returns the Manhattan (L1) distance between two physical points.
func Dist(a, b Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// DistUV returns the Chebyshev (L∞) distance between two uv-space points,
// which equals the Manhattan distance of the corresponding physical points.
func DistUV(a, b UV) float64 {
	return max(math.Abs(a.U-b.U), math.Abs(a.V-b.V))
}

// Rect is an axis-aligned, possibly degenerate rectangle in uv-space.
// It is the universal merging locus: a physical point (both extents zero),
// a Manhattan arc (one extent zero), or a tilted rectangular region.
//
// A Rect with ULo > UHi or VLo > VHi is empty; use IsEmpty to test.
type Rect struct {
	ULo, UHi, VLo, VHi float64
}

// RectFromPoint returns the degenerate rectangle holding one physical point.
func RectFromPoint(p Point) Rect {
	q := ToUV(p)
	return Rect{ULo: q.U, UHi: q.U, VLo: q.V, VHi: q.V}
}

// RectFromUV returns the degenerate rectangle holding one uv point.
func RectFromUV(q UV) Rect {
	return Rect{ULo: q.U, UHi: q.U, VLo: q.V, VHi: q.V}
}

// IsEmpty reports whether the rectangle contains no point.
func (r Rect) IsEmpty() bool { return r.ULo > r.UHi || r.VLo > r.VHi }

// IsPoint reports whether the rectangle is a single point.
func (r Rect) IsPoint() bool { return r.ULo == r.UHi && r.VLo == r.VHi }

// IsSegment reports whether the rectangle is a (non-point) Manhattan arc,
// i.e. degenerate in exactly one dimension.
func (r Rect) IsSegment() bool {
	return !r.IsEmpty() && !r.IsPoint() && (r.ULo == r.UHi || r.VLo == r.VHi)
}

// Width returns the u-extent (non-negative for non-empty rectangles).
func (r Rect) Width() float64 { return r.UHi - r.ULo }

// Height returns the v-extent (non-negative for non-empty rectangles).
func (r Rect) Height() float64 { return r.VHi - r.VLo }

// Center returns the uv-space center of the rectangle.
func (r Rect) Center() UV { return UV{U: (r.ULo + r.UHi) / 2, V: (r.VLo + r.VHi) / 2} }

// Inflate grows the rectangle by d on every side (Minkowski sum with the
// L∞ ball of radius d, i.e. the L1 ball in physical space). Negative d
// shrinks; the result may become empty.
func (r Rect) Inflate(d float64) Rect {
	return Rect{ULo: r.ULo - d, UHi: r.UHi + d, VLo: r.VLo - d, VHi: r.VHi + d}
}

// Intersect returns the intersection of two rectangles. ok is false when the
// intersection is empty.
func Intersect(a, b Rect) (Rect, bool) {
	out := Rect{
		ULo: max(a.ULo, b.ULo), UHi: min(a.UHi, b.UHi),
		VLo: max(a.VLo, b.VLo), VHi: min(a.VHi, b.VHi),
	}
	return out, !out.IsEmpty()
}

// gap1 returns the 1-D distance between intervals [alo,ahi] and [blo,bhi]
// (zero when they overlap).
func gap1(alo, ahi, blo, bhi float64) float64 {
	if g := blo - ahi; g > 0 {
		return g
	}
	if g := alo - bhi; g > 0 {
		return g
	}
	return 0
}

// DistRR returns the minimum Manhattan distance between any point of a and
// any point of b (the L∞ gap in uv-space). Both rectangles must be non-empty.
func DistRR(a, b Rect) float64 {
	du := gap1(a.ULo, a.UHi, b.ULo, b.UHi)
	dv := gap1(a.VLo, a.VHi, b.VLo, b.VHi)
	return max(du, dv)
}

// DistRP returns the minimum Manhattan distance from rectangle r to uv point q.
func DistRP(r Rect, q UV) float64 {
	return DistRR(r, RectFromUV(q))
}

// clamp1 clamps x into [lo, hi].
func clamp1(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClosestPointTo returns the point of r nearest (in L∞/uv, equivalently
// L1/xy) to q. When q is inside r it returns q itself.
func (r Rect) ClosestPointTo(q UV) UV {
	return UV{U: clamp1(q.U, r.ULo, r.UHi), V: clamp1(q.V, r.VLo, r.VHi)}
}

// Contains reports whether uv point q lies in r (boundary inclusive).
func (r Rect) Contains(q UV) bool {
	return q.U >= r.ULo && q.U <= r.UHi && q.V >= r.VLo && q.V <= r.VHi
}

// ContainsRect reports whether b lies entirely within r.
func (r Rect) ContainsRect(b Rect) bool {
	return b.ULo >= r.ULo && b.UHi <= r.UHi && b.VLo >= r.VLo && b.VHi <= r.VHi
}

// Union returns the bounding box of a and b.
func Union(a, b Rect) Rect {
	return Rect{
		ULo: min(a.ULo, b.ULo), UHi: max(a.UHi, b.UHi),
		VLo: min(a.VLo, b.VLo), VHi: max(a.VHi, b.VHi),
	}
}

// MergeLocus returns the locus of merge points at distance ≤ ea from a and
// ≤ eb from b, i.e. inflate(a,ea) ∩ inflate(b,eb). When ea+eb equals the
// rectangle distance DistRR(a,b) every point of the locus is at distance
// exactly ea from a and eb from b; with ea+eb greater (wire snaking) the
// locus is fatter and the committed wire lengths remain ea and eb by
// detouring. The caller must ensure ea+eb ≥ DistRR(a,b); the result is then
// guaranteed non-empty (up to floating-point rounding, which is absorbed by
// a tiny epsilon re-inflation).
func MergeLocus(a, b Rect, ea, eb float64) Rect {
	out, ok := Intersect(a.Inflate(ea), b.Inflate(eb))
	if !ok {
		// ea+eb ≥ dist should guarantee non-emptiness; re-inflate by the
		// tiny deficit caused by rounding so downstream code always has a
		// valid locus.
		eps := max(DistRR(a, b)-(ea+eb), 0) + float64(1e-9*(1+math.Abs(ea)+math.Abs(eb)))
		out, _ = Intersect(a.Inflate(ea+eps), b.Inflate(eb+eps))
	}
	return out
}

// Corners returns the four physical-plane corners of the rectangle in order
// (ULo,VLo), (UHi,VLo), (UHi,VHi), (ULo,VHi). For degenerate rectangles some
// corners coincide.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		ToXY(UV{U: r.ULo, V: r.VLo}),
		ToXY(UV{U: r.UHi, V: r.VLo}),
		ToXY(UV{U: r.UHi, V: r.VHi}),
		ToXY(UV{U: r.ULo, V: r.VHi}),
	}
}

// String renders the rectangle for diagnostics.
func (r Rect) String() string {
	if r.IsEmpty() {
		return "Rect(empty)"
	}
	return fmt.Sprintf("Rect(u[%.6g,%.6g] v[%.6g,%.6g])", r.ULo, r.UHi, r.VLo, r.VHi)
}

// BoundingBox returns the axis-aligned physical-plane bounding box
// (xmin, ymin, xmax, ymax) of the rectangle.
func (r Rect) BoundingBox() (xmin, ymin, xmax, ymax float64) {
	c := r.Corners()
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, p := range c {
		xmin = min(xmin, p.X)
		xmax = max(xmax, p.X)
		ymin = min(ymin, p.Y)
		ymax = max(ymax, p.Y)
	}
	return xmin, ymin, xmax, ymax
}
