package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
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

// instanceBuilder is the builder Build makes over every sink of in, before
// its first merge.
func instanceBuilder(in *ctree.Instance, opt Options) *builder {
	b := &builder{opt: opt, numGroups: in.NumGroups, source: in.Source, uf: newGroupUF(in.NumGroups)}
	b.initScratch()
	b.initSinkNodes(len(in.Sinks), func(i int) *ctree.Sink { return &in.Sinks[i] })
	return b
}

// replayMerges executes exactly the recorded merge bodies — no pairing, no
// queue — reproducing the serial build of the same tree.
func replayMerges(in *ctree.Instance, opt Options, seq [][2]int) *builder {
	b := instanceBuilder(in, opt)
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
// pairing cost of a full build: the merge sequence is
// recorded once from a routed instance and then replayed without any
// nearest-neighbor machinery. ReportAllocs makes the allocation weight of
// the bodies themselves visible. The paper case routes a Table II input at
// the paper's 10 ps bound, where most merges resolve deferred splits
// jointly, so its time is dominated by jointResolve's split search: per
// search, one layout names the child intervals feeding each group of a
// deferred operand, and every candidate split is evaluated from it in one
// pass into buffers the builder sized once.
func BenchmarkMergeBodies(b *testing.B) {
	cases := []struct {
		name string
		in   *ctree.Instance
		opt  Options
	}{
		{
			name: "zst/n=1000",
			in:   bench.Small(1000, 9),
			opt:  Options{SingleGroup: true, Model: DefaultModel()},
		},
		{
			name: "ast-intermingled/n=400",
			in:   bench.Intermingled(bench.Small(400, 33), 4, 99),
			opt:  Options{Model: DefaultModel()},
		},
		{
			name: "ast-paper-r2k8/B=10",
			in:   paperR2K8(),
			opt:  Options{IntraSkewBound: 10, Model: DefaultModel()},
		},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			ref, err := Build(tc.in, Options{
				SingleGroup:    tc.opt.SingleGroup,
				IntraSkewBound: tc.opt.IntraSkewBound,
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
// at the merge-body level with a cheap test. The flat-delay build replayed
// the 1000-sink ZST sequence in ~1.5k allocations (node arena chunks, slab
// chunks, queue-free replay), and 27 at commit 277ff92; the map-based
// representation needed ~5 per merge, and that budget leaves ~2× headroom
// over the first. The paper case replays
// BenchmarkMergeBodies' r2 k = 8 sequence at B = 10, where most merges run
// the deferred-split search; its budget is the count measured at commit
// 277ff92, so a search that grows scratch per merge instead of once per
// builder fails it.
func TestMergeBodiesReplayAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		in     *ctree.Instance
		opt    Options
		budget float64
	}{
		{"zst/n=1000", bench.Small(1000, 9), Options{SingleGroup: true, Model: DefaultModel()}, 3000},
		{"ast-paper-r2k8/B=10", paperR2K8(), Options{IntraSkewBound: 10, Model: DefaultModel()}, 4163},
	} {
		ref, err := Build(tc.in, Options{SingleGroup: tc.opt.SingleGroup, IntraSkewBound: tc.opt.IntraSkewBound})
		if err != nil {
			t.Fatal(err)
		}
		seq := mergeSequence(tc.in, ref.Root)
		allocs := testing.AllocsPerRun(1, func() {
			replayMerges(tc.in, tc.opt, seq)
		})
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: merge-body replay allocations = %.0f, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
