// Package rctree implements the interconnect delay models and merge-point
// solvers used by the DME family of clock routers (DME, BST, AST-DME).
//
// Two delay models are provided:
//
//   - Elmore: the first-moment RC delay of a distributed wire modelled as a
//     pi-segment (paper Ch. III). This is the model used by the thesis and by
//     the classic zero-skew / bounded-skew literature.
//   - Linear: the pathlength metric used by the only prior associative-skew
//     work (Chen–Kahng–Qu–Zelikovsky, ICCAD 1999), kept for comparison and
//     for reproducing Figure 1's exact wirelength/skew numbers.
//
// Both models share one crucial property exploited throughout: for a merge
// of two subtrees whose roots are d apart, the delay difference
//
//	X(e) = WireDelay(e, Ca) − WireDelay(d−e, Cb)
//
// is linear in the split position e (for Elmore the quadratic terms cancel),
// so exact split positions are closed-form. Wire snaking (extending an edge
// beyond the geometric distance to slow a too-fast subtree) reduces to a
// single quadratic, solved by ExtendForDelay.
//
// Units: lengths are abstract "units" (think µm); capacitance is fF;
// resistance is Ω/unit; all delays are picoseconds.
//
// The Elmore methods write float64(x*y) wherever a product feeds an add, and
// WireDelay, WireCap, WireRes and rps round their results, so a caller that
// inlines one and adds to it cannot fuse either: a compiler for an
// architecture with fused multiply-add (arm64, ppc64le, riscv64, s390x)
// rounds each product as amd64 does, so the delays, lengths and caps the
// methods return are the same bits on every architecture.
package rctree

import (
	"fmt"
	"math"
)

// ohmFemtofaradToPs converts Ω·fF (= 1 femtosecond) to picoseconds.
const ohmFemtofaradToPs = 1e-3

// Model abstracts the delay metric used by merge solvers. Implementations
// must keep X(e) = WireDelay(e,ca) − WireDelay(d−e,cb) linear in e; both the
// Elmore pi-model and the pathlength model satisfy this.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// WireDelay returns the delay in ps through a wire of the given length
	// driving a downstream capacitance cLoad (fF).
	WireDelay(length, cLoad float64) float64
	// SplitForDiff returns the (unclamped, possibly negative or > d) split
	// position e such that WireDelay(e,ca) − WireDelay(d−e,cb) equals diff.
	// d must be > 0.
	SplitForDiff(d, ca, cb, diff float64) float64
	// ExtendForDelay returns the wire length l ≥ 0 such that
	// WireDelay(l, cLoad) = delay. Non-positive delays return 0.
	ExtendForDelay(cLoad, delay float64) float64
	// WireCap returns the capacitance (fF) contributed by a wire of the
	// given length (zero for the pathlength model).
	WireCap(length float64) float64
	// WireRes returns the resistance (in delay-per-fF units, i.e. scaled so
	// that WireRes·capacitance is ps) of a wire of the given length (zero
	// for the pathlength model).
	WireRes(length float64) float64
	// ElongationFor returns the elongation γ ≥ 0 of an existing tree edge of
	// length edgeLen driving downstream capacitance cDown, with total
	// upstream resistance rUp from the point of interest (typically the
	// subtree root whose delays are being adjusted), such that the delay to
	// every sink below the edge grows by `delay` ps:
	//
	//	WireDelay(γ, cDown + WireCap(edgeLen)) + rUp·WireCap(γ) = delay
	//
	// The rUp term accounts for the added snake capacitance seen through the
	// ancestor path — without it, deep snakes overshoot their target by the
	// ratio of upstream to local resistance.
	ElongationFor(delay, edgeLen, cDown, rUp float64) float64
}

// Elmore is the distributed-RC first-moment delay model. A wire of length l
// driving load CL contributes delay r·l·(c·l/2 + CL) where r, c are the
// per-unit resistance and capacitance.
type Elmore struct {
	// ROhmPerUnit is the wire resistance in Ω per length unit.
	ROhmPerUnit float64
	// CFFPerUnit is the wire capacitance in fF per length unit.
	CFFPerUnit float64
}

// NewElmore returns an Elmore model with the given per-unit wire resistance
// (Ω/unit) and capacitance (fF/unit). Both must be positive.
func NewElmore(rOhmPerUnit, cFFPerUnit float64) Elmore {
	if rOhmPerUnit <= 0 || cFFPerUnit <= 0 {
		panic(fmt.Sprintf("rctree: non-positive wire parameters r=%v c=%v", rOhmPerUnit, cFFPerUnit))
	}
	return Elmore{ROhmPerUnit: rOhmPerUnit, CFFPerUnit: cFFPerUnit}
}

// Name implements Model.
func (Elmore) Name() string { return "elmore" }

// rps returns the resistance scaled so Ω·fF products come out in ps,
// rounded: the compiler may write 2·rps as rps + rps and fuse the scaling
// into that add.
func (m Elmore) rps() float64 { return float64(m.ROhmPerUnit * ohmFemtofaradToPs) }

// WireDelay implements Model: r·l·(c·l/2 + CL) in ps.
func (m Elmore) WireDelay(length, cLoad float64) float64 {
	return float64(m.rps() * length * (float64(m.CFFPerUnit*length/2) + cLoad))
}

// WireCap implements Model.
func (m Elmore) WireCap(length float64) float64 { return float64(m.CFFPerUnit * length) }

// SplitForDiff implements Model. Writing wa(e) = r·e(c·e/2+ca) and
// wb(e) = r(d−e)(c(d−e)/2+cb), the quadratic terms of wa−wb cancel and
//
//	X(e) = X(0) + e·r(c·d + ca + cb), X(0) = −WireDelay(d, cb)
//
// so e = (diff − X(0)) / (r(c·d + ca + cb)).
func (m Elmore) SplitForDiff(d, ca, cb, diff float64) float64 {
	slope := m.rps() * (float64(m.CFFPerUnit*d) + ca + cb)
	return (diff + m.WireDelay(d, cb)) / slope
}

// ExtendForDelay implements Model: solves (rc/2)l² + r·cLoad·l = delay.
func (m Elmore) ExtendForDelay(cLoad, delay float64) float64 {
	if delay <= 0 {
		return 0
	}
	r, c := m.rps(), m.CFFPerUnit
	// l = (−r·C + sqrt(r²C² + 2rc·delay)) / (rc)
	disc := float64(r*r*cLoad*cLoad) + float64(2*r*c*delay)
	return (math.Sqrt(disc) - float64(r*cLoad)) / (r * c)
}

// WireRes implements Model.
func (m Elmore) WireRes(length float64) float64 { return float64(m.rps() * length) }

// ElongationFor implements Model: solves
// (rc/2)γ² + (r(cDown + c·edgeLen) + rUp·c)γ = delay.
func (m Elmore) ElongationFor(delay, edgeLen, cDown, rUp float64) float64 {
	if delay <= 0 {
		return 0
	}
	r, c := m.rps(), m.CFFPerUnit
	lin := float64(r*(cDown+float64(c*edgeLen))) + float64(rUp*c)
	disc := float64(lin*lin) + float64(2*r*c*delay)
	return (math.Sqrt(disc) - lin) / (r * c)
}

// Linear is the pathlength delay metric: delay equals geometric wirelength
// and capacitance is ignored. One "time unit" is one length unit.
type Linear struct{}

// Name implements Model.
func (Linear) Name() string { return "pathlength" }

// WireDelay implements Model.
func (Linear) WireDelay(length, _ float64) float64 { return length }

// WireCap implements Model.
func (Linear) WireCap(float64) float64 { return 0 }

// SplitForDiff implements Model: e − (d−e) = diff ⇒ e = (d+diff)/2.
func (Linear) SplitForDiff(d, _, _, diff float64) float64 { return (d + diff) / 2 }

// ExtendForDelay implements Model.
func (Linear) ExtendForDelay(_, delay float64) float64 { return max(delay, 0) }

// WireRes implements Model.
func (Linear) WireRes(float64) float64 { return 0 }

// ElongationFor implements Model.
func (Linear) ElongationFor(delay, _, _, _ float64) float64 { return max(delay, 0) }
