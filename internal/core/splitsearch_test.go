package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/rctree"
)

// searches reports whether merge would pin the deferred splits of na and nb
// with jointResolve (the condition merge tests).
func (b *builder) searches(na, nb *ctree.Node) bool {
	if na.Def == nil && nb.Def == nil {
		return false
	}
	return ctree.SharesGroup(na.Groups(), nb.Groups()) ||
		(!b.opt.SingleGroup && b.relatedRoots(na, nb))
}

// sameIntervals reports whether a and b hold the same intervals, bit for bit.
func sameIntervals(a, b []rctree.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}

// TestSplitEvalMatchesResolve pins the split search's evaluation to what it
// commits: replaying every Table II row (r1–r5 intermingled in 4, 6, 8 and
// 10 groups, B = 10), for every operand of every search, the evaluation at
// the split the search chose is bitwise the delay set and region
// ctree.Node.Resolve commits there, and a resolved operand evaluates to its
// committed set and region. The search scores candidates by these
// evaluations, so a drift between the two would rank splits by delays no
// tree ever carries. Resolve clamps the split into the operand's range, and
// the grid's last sample, lo + (hi − lo)·12/12, can round one ulp past hi;
// the evaluation is taken at the clamped split, and the test logs how often
// the choice was outside.
func TestSplitEvalMatchesResolve(t *testing.T) {
	deferred, resolved, clamped := 0, 0, 0
	for ci := 0; ci < 5; ci++ {
		for _, k := range []int{4, 6, 8, 10} {
			in := paperInput(ci, k)
			ref, err := Build(in, Options{IntraSkewBound: 10})
			if err != nil {
				t.Fatal(err)
			}
			b := instanceBuilder(in, Options{IntraSkewBound: 10, Model: DefaultModel()})
			// The search's plan and evaluations are scratch once it returns.
			side, ev := &b.plan.a, &b.splitsA[0]
			base := len(b.nodes)
			for m, p := range mergeSequence(in, ref.Root) {
				na, nb := b.nodes[p[0]], b.nodes[p[1]]
				if b.searches(na, nb) {
					before := [2]ctree.Node{*na, *nb}
					ea, eb := b.jointResolve(na, nb)
					for i, n := range [2]*ctree.Node{na, nb} {
						pre := &before[i]
						lo, hi := pre.SplitRange()
						e := [2]float64{ea, eb}[i]
						if at := min(max(e, lo), hi); at != e {
							e = at
							clamped++
						}
						side.build(b.uf, pre)
						side.eval(b.opt.Model, pre, e, ev)
						if !sameIntervals(ev.delay, n.Delay.Ivs) || ev.rect != n.Region {
							t.Fatalf("%s merge %d operand %d (deferred %v) at split %v: evaluated %v in %v, committed %v in %v",
								in.Name, m, i, pre.Def != nil, e, ev.delay, ev.rect, n.Delay.Ivs, n.Region)
						}
						if pre.Def != nil {
							deferred++
						} else {
							resolved++
						}
					}
				}
				c := &b.arena[base+m]
				b.merge(na, nb, c)
				c.ID = base + m
				b.nodes = append(b.nodes, c)
			}
			// The replay must be the routed build: searches mirrors merge's
			// condition, and any drift between the two moves an edge.
			want := make([]*ctree.Node, len(b.nodes))
			ref.Root.Visit(func(n *ctree.Node) { want[n.ID] = n })
			for _, n := range b.nodes[base : len(b.nodes)-1] {
				w := want[n.ID]
				if math.Float64bits(n.EdgeL) != math.Float64bits(w.EdgeL) || math.Float64bits(n.EdgeR) != math.Float64bits(w.EdgeR) {
					t.Fatalf("%s node %d: replayed edges %v/%v, routed %v/%v", in.Name, n.ID, n.EdgeL, n.EdgeR, w.EdgeL, w.EdgeR)
				}
			}
		}
	}
	if deferred == 0 || resolved == 0 {
		t.Fatalf("checked %d deferred and %d resolved operands; the rows must exercise both", deferred, resolved)
	}
	t.Logf("%d deferred and %d resolved operands checked; %d choices outside their range", deferred, resolved, clamped)
}

// TestSplitCostAtLeastDistance pins the bound jointResolve's skip rule
// rests on: every cost splitCost returns is at least 0.98·d, for the
// candidate distance d. It draws random pairs of the deferred subtree roots
// live at points of two replays of r2 at B = 10: Table II's grouping in 8
// intermingled groups, under the registry leash, and the EXT-BST build,
// whose SingleGroup windows are raw ones only; it scores them at random
// splits.
func TestSplitCostAtLeastDistance(t *testing.T) {
	in := paperR2K8()
	rng := rand.New(rand.NewSource(26))
	pairs, minRatio := 0, math.Inf(1)
	for _, single := range []bool{false, true} {
		opt := Options{IntraSkewBound: 10, SingleGroup: single, Model: DefaultModel()}
		ref, err := Build(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		seq := mergeSequence(in, ref.Root)
		b := instanceBuilder(in, opt)
		b.initSplits()
		base := len(b.nodes)
		for k, p := range seq {
			c := &b.arena[base+k]
			b.merge(b.nodes[p[0]], b.nodes[p[1]], c)
			c.ID = base + k
			b.nodes = append(b.nodes, c)
			if k%40 != 0 {
				continue
			}
			var live []*ctree.Node
			for _, n := range b.nodes {
				if n.Def != nil {
					live = append(live, n)
				}
			}
			for try := 0; try < 20 && len(live) >= 2; try++ {
				i, j := rng.Intn(len(live)), rng.Intn(len(live)-1)
				if j >= i {
					j++
				}
				na, nb := live[i], live[j]
				b.layout(na, nb, true)
				sa, sb := &b.splitsA[0], &b.splitsB[0]
				split := func(n *ctree.Node) float64 {
					lo, hi := n.SplitRange()
					return lo + (hi-lo)*rng.Float64()
				}
				b.plan.a.eval(b.opt.Model, na, split(na), sa)
				b.plan.b.eval(b.opt.Model, nb, split(nb), sb)
				d := geom.DistRR(sa.rect, sb.rect)
				_, cost, _ := b.splitCost(na.Cap, nb.Cap, d, sa, sb)
				if !(cost >= 0.98*d) {
					t.Fatalf("SingleGroup=%v merge %d: cost %v below 0.98·d for d = %v", single, k, cost, d)
				}
				if d > 0 {
					minRatio = min(minRatio, cost/d)
				}
				pairs++
			}
		}
	}
	if pairs < 100 {
		t.Fatalf("only %d deferred pairs scored", pairs)
	}
	t.Logf("%d pairs, least cost/d %v", pairs, minRatio)
}
