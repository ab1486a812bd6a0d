package geom

import (
	"math"
	"math/rand"
	"testing"
)

// randomOct builds a random non-empty octagon by intersecting a random rect
// with a random diagonal band around one of the rect's points.
func randomOct(r *rand.Rand) Octagon {
	rect := randomRect(r)
	o := OctFromRect(rect)
	// Narrow the diagonal bounds around a random interior point, keeping the
	// octagon non-empty.
	u := rect.ULo + r.Float64()*rect.Width()
	v := rect.VLo + r.Float64()*rect.Height()
	s, t := u+v, u-v
	if r.Intn(2) == 0 {
		w := r.Float64() * 50
		o.SLo = math.Max(o.SLo, s-w)
		o.SHi = math.Min(o.SHi, s+w)
	}
	if r.Intn(2) == 0 {
		w := r.Float64() * 50
		o.TLo = math.Max(o.TLo, t-w)
		o.THi = math.Min(o.THi, t+w)
	}
	return o.Close()
}

// samplePoints draws points of a closed octagon via AnyPoint with random
// preferences.
func samplePoints(o Octagon, r *rand.Rand, n int) []UV {
	pts := make([]UV, 0, n)
	for i := 0; i < n; i++ {
		pref := UV{
			U: o.ULo + r.Float64()*(o.UHi-o.ULo+1) - 0.5,
			V: o.VLo + r.Float64()*(o.VHi-o.VLo+1) - 0.5,
		}
		pts = append(pts, o.AnyPoint(pref))
	}
	return pts
}

func TestOctFromRectRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		rect := randomRect(r)
		o := OctFromRect(rect)
		c := o.Close()
		const tol = 1e-6
		if math.Abs(c.ULo-o.ULo) > tol || math.Abs(c.UHi-o.UHi) > tol ||
			math.Abs(c.VLo-o.VLo) > tol || math.Abs(c.VHi-o.VHi) > tol ||
			math.Abs(c.SLo-o.SLo) > tol || math.Abs(c.SHi-o.SHi) > tol ||
			math.Abs(c.TLo-o.TLo) > tol || math.Abs(c.THi-o.THi) > tol {
			t.Fatalf("OctFromRect not closed: %v vs %v", o, c)
		}
		if c.IsEmpty() {
			t.Fatalf("rect lift empty: %v", rect)
		}
	}
}

func TestOctCloseIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		o := randomOct(r)
		c := o.Close()
		cc := c.Close()
		const tol = 1e-9
		if math.Abs(c.ULo-cc.ULo) > tol || math.Abs(c.SHi-cc.SHi) > tol ||
			math.Abs(c.TLo-cc.TLo) > tol || math.Abs(c.VHi-cc.VHi) > tol {
			t.Fatalf("Close not idempotent: %v vs %v", c, cc)
		}
	}
}

func TestAnyPointInsideOctagon(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		o := randomOct(r)
		for _, q := range samplePoints(o, r, 10) {
			if !o.ContainsUV(q, 1e-6) {
				t.Fatalf("AnyPoint %v outside %v", q, o)
			}
		}
	}
}

func TestAnyPointReturnsPrefWhenInside(t *testing.T) {
	o := OctFromRect(Rect{ULo: 0, UHi: 10, VLo: 0, VHi: 10}).Close()
	q := o.AnyPoint(UV{U: 4, V: 5})
	if q != (UV{U: 4, V: 5}) {
		t.Errorf("AnyPoint moved interior pref: %v", q)
	}
}

func TestDistOOAgainstSampling(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		a, b := randomOct(r), randomOct(r)
		want := DistOO(a, b)
		// No sampled pair may be closer than the formula (formula is a lower
		// bound by construction; sampling also checks achievability loosely).
		best := math.Inf(1)
		pa := samplePoints(a, r, 40)
		pb := samplePoints(b, r, 40)
		for _, qa := range pa {
			for _, qb := range pb {
				if d := DistUV(qa, qb); d < best {
					best = d
				}
			}
		}
		if best < want-1e-6*(1+want) {
			t.Fatalf("sampled distance %v below formula %v\na=%v\nb=%v", best, want, a, b)
		}
	}
}

func TestClosestPointsRealizeDistance(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a, b := randomOct(r), randomOct(r)
		want := DistOO(a, b)
		qa, qb := ClosestPoints(a, b)
		tol := 1e-6 * (1 + want)
		if !a.ContainsUV(qa, tol) {
			t.Fatalf("qa %v outside a %v", qa, a)
		}
		if !b.ContainsUV(qb, tol) {
			t.Fatalf("qb %v outside b %v", qb, b)
		}
		if d := DistUV(qa, qb); math.Abs(d-want) > tol {
			t.Fatalf("closest pair distance %v != %v\na=%v\nb=%v", d, want, a, b)
		}
	}
}

func TestInflateDistanceConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		a, b := randomOct(r), randomOct(r)
		d := DistOO(a, b)
		if d == 0 {
			continue
		}
		if _, ok := IntersectOct(a.Inflate(d*1.0000001+1e-9), b); !ok {
			t.Fatalf("inflate by distance misses: d=%v\na=%v\nb=%v", d, a, b)
		}
		if _, ok := IntersectOct(a.Inflate(d*0.999), b); ok {
			t.Fatalf("inflate below distance intersects: d=%v", d)
		}
	}
}

func TestSDRMembership(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 800; i++ {
		a, b := randomRect(r), randomRect(r)
		d := DistRR(a, b)
		if d == 0 {
			continue
		}
		eLo := r.Float64() * d
		eHi := eLo + r.Float64()*(d-eLo)
		o := SDR(a, b, d, eLo, eHi)
		if o.IsEmpty() {
			t.Fatalf("empty SDR d=%v", d)
		}
		tol := 1e-6 * (1 + d)
		// Octagon points lie on the SDR: dist sums to d with e in range.
		for _, q := range samplePoints(o, r, 25) {
			ea := DistRP(a, geomUV(q))
			eb := DistRP(b, geomUV(q))
			if ea+eb > d+tol {
				t.Fatalf("SDR point %v has slack sum %v > d %v", q, ea+eb, d)
			}
			if ea < eLo-tol || ea > eHi+tol {
				t.Fatalf("SDR point %v has e=%v outside [%v,%v]", q, ea, eLo, eHi)
			}
		}
		// Conversely every per-split locus lies inside the octagon.
		for j := 0; j < 8; j++ {
			e := eLo + r.Float64()*(eHi-eLo)
			locus := MergeLocus(a, b, e, d-e)
			corners := []UV{
				{locus.ULo, locus.VLo}, {locus.UHi, locus.VLo},
				{locus.ULo, locus.VHi}, {locus.UHi, locus.VHi},
			}
			for _, q := range corners {
				if !o.ContainsUV(q, tol) {
					t.Fatalf("locus corner %v (e=%v) outside SDR %v", q, e, o)
				}
			}
		}
	}
}

// TestSDRBreakpointsStayOnStack: SDR collects its breakpoints in an array
// on the stack, so a call with all four inside [eLo, eHi], as a deferred
// merge's can be, allocates nothing, and its octagon is the one it gave
// when the breakpoints grew a slice on the heap.
func TestSDRBreakpointsStayOnStack(t *testing.T) {
	a := Rect{ULo: 0, UHi: 2, VLo: 0, VHi: 2}
	b := Rect{ULo: 3, UHi: 5, VLo: 1, VHi: 4}
	const d, eLo, eHi = 10.0, 0.0, 10.0
	for _, x := range []float64{(a.ULo - b.ULo + d) / 2, (b.UHi - a.UHi + d) / 2, (a.VLo - b.VLo + d) / 2, (b.VHi - a.VHi + d) / 2} {
		if !(x > eLo && x < eHi) {
			t.Fatalf("breakpoint %v outside (%v, %v): the test lost its point", x, eLo, eHi)
		}
	}
	var o Octagon
	if allocs := testing.AllocsPerRun(100, func() { o = SDR(a, b, d, eLo, eHi) }); allocs != 0 {
		t.Errorf("SDR allocated %v times per call, want 0", allocs)
	}
	want := Octagon{ULo: -3.5, UHi: 8.5, VLo: -4.5, VHi: 8, SLo: -7, SHi: 16, TLo: -9, THi: 11}
	if o != want {
		t.Errorf("SDR = %v, want %v", o, want)
	}
}

// geomUV is the identity; it exists to make the call sites above readable.
func geomUV(q UV) UV { return q }

func TestSDRFullRangeEqualsClassicSDR(t *testing.T) {
	// For two points, the full SDR is the "bounding diamond": every point q
	// with Dist(q,a)+Dist(q,b) = d.
	a := RectFromPoint(Point{0, 0})
	b := RectFromPoint(Point{10, 4})
	d := DistRR(a, b)
	o := SDR(a, b, d, 0, d)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		q := UV{U: r.Float64()*30 - 8, V: r.Float64()*30 - 8}
		in := o.ContainsUV(q, 1e-9)
		sum := DistRP(a, q) + DistRP(b, q)
		if in && sum > d+1e-6 {
			t.Fatalf("octagon point %v not on SDR (sum %v, d %v)", q, sum, d)
		}
		if !in && sum <= d-1e-6 {
			t.Fatalf("SDR point %v missing from octagon (sum %v, d %v)", q, sum, d)
		}
	}
}

func TestDistOPMatchesRectCase(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		rect := randomRect(r)
		q := UV{U: (r.Float64() - 0.5) * 2e4, V: (r.Float64() - 0.5) * 2e4}
		want := DistRP(rect, q)
		got := DistOP(OctFromRect(rect), q)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("DistOP %v != DistRP %v", got, want)
		}
	}
}
