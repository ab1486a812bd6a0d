package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/order"
	"repro/internal/rctree"
)

// mergeSequence extracts the merge order of a routed tree: internal node
// ids are assigned densely in merge order, so ordering internal nodes by id
// and reading their children's ids reproduces the exact (i, j) sequence.
func mergeSequence(in *ctree.Instance, root *ctree.Node) [][2]int {
	n := len(in.Sinks)
	byID := make([]*ctree.Node, 2*n-1)
	root.Visit(func(nd *ctree.Node) { byID[nd.ID] = nd })
	seq := make([][2]int, 0, n-1)
	for id := n; id < len(byID); id++ {
		nd := byID[id]
		seq = append(seq, [2]int{nd.Left.ID, nd.Right.ID})
	}
	return seq
}

// replayMerges executes exactly the recorded merge bodies — no pairing, no
// queue — reproducing the serial build of the same tree.
func replayMerges(in *ctree.Instance, opt Options, seq [][2]int) *builder {
	b := &builder{opt: opt, in: in, uf: newGroupUF(in.NumGroups)}
	b.initScratch()
	b.initSinkNodes(nil)
	base := len(b.nodes)
	for k, p := range seq {
		c := &b.arena[base+k]
		b.merge(b.nodes[p[0]], b.nodes[p[1]], c)
		c.ID = base + k
		b.nodes = append(b.nodes, c)
	}
	return b
}

// BenchmarkMergeBodies isolates the merge-body cost — window intersection,
// joint resolution, Elmore bookkeeping, node construction — from the
// pairing cost that BenchmarkOrderScaling includes: the merge sequence is
// recorded once from a routed instance and then replayed without any
// nearest-neighbor machinery. ReportAllocs makes the allocation weight of
// the bodies themselves visible. The paper case routes a Table II input at
// the paper's 10 ps bound, where most merges resolve deferred splits
// jointly, so its time is dominated by jointResolve's split search.
func BenchmarkMergeBodies(b *testing.B) {
	cases := []struct {
		name string
		in   *ctree.Instance
		opt  Options
	}{
		{
			name: "zst/n=1000",
			in:   bench.Small(1000, 9),
			opt:  Options{SingleGroup: true, Model: DefaultModel(), MaxSneakIter: 8, SneakCostCap: 8},
		},
		{
			name: "ast-intermingled/n=400",
			in:   bench.Intermingled(bench.Small(400, 33), 4, 99),
			opt:  Options{Model: DefaultModel(), MaxSneakIter: 8, SneakCostCap: 8},
		},
		{
			name: "ast-paper-r2k8/B=10",
			in:   paperR2K8(),
			opt:  Options{IntraSkewBound: 10, Model: DefaultModel(), MaxSneakIter: 8, SneakCostCap: 8},
		},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ref, err := Build(tc.in, Options{
				SingleGroup:    tc.opt.SingleGroup,
				IntraSkewBound: tc.opt.IntraSkewBound,
				Order:          order.Config{},
			})
			if err != nil {
				b.Fatal(err)
			}
			seq := mergeSequence(tc.in, ref.Root)
			b.ReportAllocs()
			b.ResetTimer()
			var last *builder
			for i := 0; i < b.N; i++ {
				last = replayMerges(tc.in, tc.opt, seq)
			}
			b.StopTimer()
			root := last.nodes[len(last.nodes)-1]
			b.ReportMetric(root.Wirelength(), "replay_wirelen")
		})
	}
}

// BenchmarkDelayMerge isolates the delay-merge kernel itself — the top
// entry of BenchmarkMergeBodies profiles before the flat representation.
// Group counts cover the ZST case (1 group, the large-instance hot path),
// a typical AST run (8 groups, half shared) and a wide one (64 groups).
// With the destination reserved from a slab, the steady state must be
// allocation-free (ReportAllocs makes any regression visible).
func BenchmarkDelayMerge(b *testing.B) {
	for _, tc := range []struct {
		name   string
		ga, gb []int32
	}{
		{"shared1", []int32{0}, []int32{0}},
		{"g8-half-shared", []int32{0, 1, 2, 3, 4, 5, 6, 7}, []int32{4, 5, 6, 7, 8, 9, 10, 11}},
		{"g64-disjoint", mkGroups(0, 64), mkGroups(64, 64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mk := func(gs []int32) rctree.DelaySet {
				s := rctree.MakeDelaySet(len(gs))
				for i, g := range gs {
					s.Push(g, rctree.Interval{Lo: float64(i), Hi: float64(i + 1)})
				}
				return s
			}
			sa, sb := mk(tc.ga), mk(tc.gb)
			dst := rctree.MakeDelaySet(len(tc.ga) + len(tc.gb))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rctree.MergeDelaysInto(&dst, sa, 3.5, sb, 4.25)
			}
			if dst.Len() == 0 {
				b.Fatal("empty merge")
			}
		})
	}
}

func mkGroups(base, n int) []int32 {
	gs := make([]int32, n)
	for i := range gs {
		gs[i] = int32(base + i)
	}
	return gs
}

// TestMergeBodiesReplayAllocBudget bounds the allocations of the replayed
// merge bodies (no pairing machinery), catching representation regressions
// at the merge-body level with a cheap test: the flat-delay build replays
// the 1000-sink ZST sequence in ~1.5k allocations (node arena chunks, slab
// chunks, queue-free replay); the map-based representation needed ~5 per
// merge. The budget leaves ~2× headroom.
func TestMergeBodiesReplayAllocBudget(t *testing.T) {
	const budget = 3000
	in := bench.Small(1000, 9)
	opt := Options{SingleGroup: true, Model: DefaultModel(), MaxSneakIter: 8, SneakCostCap: 8}
	ref, err := Build(in, Options{SingleGroup: true})
	if err != nil {
		t.Fatal(err)
	}
	seq := mergeSequence(in, ref.Root)
	allocs := testing.AllocsPerRun(1, func() {
		replayMerges(in, opt, seq)
	})
	if allocs > budget {
		t.Errorf("merge-body replay allocations = %.0f, budget %d", allocs, budget)
	}
}
