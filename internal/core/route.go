package core

import (
	"fmt"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/rctree"
	"repro/internal/spatial"
)

// delaySlabMin is the chunk size (entries) of the delay-set slab below.
const delaySlabMin = 4096

// delaySlab slab-allocates the backing storage of committed nodes' flat
// delay sets: merges reserve exact-capacity slices out of large chunks
// instead of allocating one map per node, which was the dominant allocation
// of large routes. Chunks are never freed individually — they live as long
// as the tree does. Each builder (including each parallel merge worker)
// owns a private slab, so reservations need no synchronization.
type delaySlab struct {
	groups []int32
	ivs    []rctree.Interval
}

// alloc reserves backing capacity for n delay entries and returns an empty
// DelaySet over it. Appending up to n entries stays within the reserved
// capacity and cannot reallocate or clobber neighboring reservations.
func (sl *delaySlab) alloc(n int) rctree.DelaySet {
	if cap(sl.groups)-len(sl.groups) < n {
		sz := delaySlabMin
		if n > sz {
			sz = n
		}
		sl.groups = make([]int32, 0, sz)
		sl.ivs = make([]rctree.Interval, 0, sz)
	}
	l := len(sl.groups)
	ds := rctree.DelaySet{
		Groups: sl.groups[l : l : l+n],
		Ivs:    sl.ivs[l : l : l+n],
	}
	sl.groups = sl.groups[:l+n]
	sl.ivs = sl.ivs[:l+n]
	return ds
}

// reclaim returns the unused tail of the most recent reservation to the
// slab — merges reserve the sum of both children's group counts but shared
// groups collapse, so on single-group runs half of every reservation would
// otherwise sit idle for the tree's lifetime — and pins the set's capacity
// to its length so no append through the committed set can ever reach the
// reclaimed space. Must be called before any subsequent alloc.
func (sl *delaySlab) reclaim(ds rctree.DelaySet) rctree.DelaySet {
	n := len(ds.Groups)
	sl.groups = sl.groups[:len(sl.groups)-(cap(ds.Groups)-n)]
	sl.ivs = sl.ivs[:len(sl.ivs)-(cap(ds.Ivs)-n)]
	return rctree.DelaySet{Groups: ds.Groups[:n:n], Ivs: ds.Ivs[:n:n]}
}

// deferralSlab allocates a builder's Deferral records in chunks of 64 to
// 256 instead of one allocation each. Resolve drops a node's record, so once
// a build is done only a still deferred root's keeps its chunk alive. Each
// builder owns a private slab, like its delay slab.
type deferralSlab struct{ buf []ctree.Deferral }

// add places d in the slab and returns its address.
func (sl *deferralSlab) add(d ctree.Deferral) *ctree.Deferral {
	if len(sl.buf) == cap(sl.buf) {
		sl.buf = make([]ctree.Deferral, 0, min(max(2*cap(sl.buf), 64), 256))
	}
	sl.buf = append(sl.buf, d)
	return &sl.buf[len(sl.buf)-1]
}

type builder struct {
	opt Options
	// numGroups is the instance's group count and source its clock source,
	// which finishRoot resolves a deferred root toward (unset in a
	// BuildSubtree builder, which leaves its root deferred).
	numGroups int
	source    geom.Point
	uf        *groupUF
	nodes     []*ctree.Node
	root      *ctree.Node
	stats     Stats
	// groups lists the distinct groups of the build's initial nodes (see
	// united).
	groups []int32

	// Cancellation state: done is Options.Ctx's Done channel (nil when the
	// build is unbounded — Background's Done is already nil, so the per-round
	// check compiles down to one nil comparison), and err is the cancellation
	// error route() stopped on; the entry points surface it instead of a tree.
	done <-chan struct{}
	err  error

	// arena slab-allocates the tree nodes this builder constructs; b.nodes
	// points into it. Sink builds (initSinkNodes) put all 2n−1 nodes here;
	// root stitches (initRootNodes) only the k−1 internal nodes, with
	// arenaOff mapping node index to arena slot.
	arena    []ctree.Node
	arenaOff int

	// Reusable scratch for the allocation-heavy merge-body helpers. Worker
	// builders carry their own copies, so merge bodies never share scratch.
	plan             splitPlan               // the current merge's layout
	normA, normB     []rctree.Interval       // windows' normalized sets (one per union-root slot)
	splitsA, splitsB [jointSamples]splitEval // jointResolve's per-side evaluations
	sneakA, sneakB   sneakScratch            // sneak plan buffers
	delays           delaySlab               // committed delay-set storage
	deferrals        deferralSlab            // deferred merges' records

	// Parallel batch execution state (main builder only): the wave's worker
	// builders, which share uf read-only, and the per-merge stat deltas they
	// hand to the commit.
	workers []builder
	deltas  []Stats

	// Observability state (main builder only; all of it is dead weight when
	// opt.Trace is nil — no field is touched then). wave* accumulate the
	// parallel merge wave's per-round idle accounting for export as
	// MetricWave* at the end of route; busyNS is the per-round per-worker
	// busy-time scratch.
	waveRounds   int
	waveBatchMax int
	waveSlotNS   int64
	waveIdleNS   int64
	busyNS       []int64
}

// initScratch sizes the builder's reusable merge-body buffers for the
// instance's group count, which bounds every operand's, so no merge grows a
// buffer. The split search's evaluations are sized at the builder's first
// search (initSplits): a builder that never defers a split, as in every
// zero-skew build and the shard builds of a B = 0 sharded build, never
// allocates them.
func (b *builder) initScratch() {
	n := b.numGroups
	b.plan.initScratch(n)
	b.normA, b.normB = make([]rctree.Interval, n), make([]rctree.Interval, n)
}

// initSplits carves the split search's evaluation buffers from one interval
// slab and one float slab, sized for the instance's group count.
func (b *builder) initSplits() {
	n := b.numGroups
	ivs := make([]rctree.Interval, 4*jointSamples*n)
	mids := make([]float64, 2*jointSamples*n)
	for i := range b.splitsA {
		for _, ev := range [2]*splitEval{&b.splitsA[i], &b.splitsB[i]} {
			ev.buf, ev.norm, ev.mid = ivs[:n:n], ivs[n:2*n:2*n], mids[:n:n]
			ivs, mids = ivs[2*n:], mids[n:]
		}
	}
}

// slot returns the preassigned arena slot of node index id.
func (b *builder) slot(id int) *ctree.Node { return &b.arena[id-b.arenaOff] }

// initSinkNodes allocates the node arena and initializes one leaf for each
// of the n sinks sink(0), …, sink(n−1), in that order. Leaves keep their
// sinks' pointers and IDs, so a sub-instance build routes a subset in place.
func (b *builder) initSinkNodes(n int, sink func(i int) *ctree.Sink) {
	b.arena = make([]ctree.Node, 2*n-1)
	b.arenaOff = 0
	b.nodes = make([]*ctree.Node, 0, 2*n-1)
	// Leaves of one group are identical in Delay ({g: [0,0]}), and node
	// Delay sets are never mutated in place (all paths build replacements),
	// so the leaves share interned instances — the interning table below
	// holds one DelaySet per group, and on large single-group (ZST) runs
	// this removes two allocations per sink.
	delayIntern := make([]rctree.DelaySet, b.numGroups)
	leafGroup := func(s *ctree.Sink) int {
		if b.opt.SingleGroup {
			return 0
		}
		return s.Group
	}
	for i := 0; i < n; i++ {
		s := sink(i)
		g := leafGroup(s)
		if delayIntern[g].IsZero() {
			b.groups = append(b.groups, int32(g))
			delayIntern[g] = rctree.PointDelaySet(g, rctree.PointInterval(0))
		}
		leaf := &b.arena[i]
		*leaf = ctree.Leaf(s, delayIntern[g])
		b.nodes = append(b.nodes, leaf)
	}
}

// initRootNodes adopts pre-built subtree roots as the builder's initial
// items (the stitch form: MergeRoots); the arena only holds the k−1 internal
// nodes the stitch will create.
func (b *builder) initRootNodes(roots []*ctree.Node) {
	k := len(roots)
	b.arena = nil
	if k > 1 {
		b.arena = make([]ctree.Node, k-1)
	}
	b.arenaOff = k
	b.nodes = append(make([]*ctree.Node, 0, 2*k-1), roots...)
	for _, r := range roots {
		b.groups = ctree.AppendUnionGroups(nil, b.groups, r.Groups())
	}
}

// route runs the merging loop over the builder's initial nodes (set by
// initSinkNodes or initRootNodes) down to a single root, which may be left
// deferred — finishRoot commits it toward the source when the tree is final.
func (b *builder) route() {
	rgn := b.opt.Trace.Begin("route")
	defer rgn.End()
	n := len(b.nodes)
	if n == 1 {
		b.root = b.nodes[0]
		return
	}

	dist := func(i, j int) float64 {
		na, nb := b.nodes[i], b.nodes[j]
		if na.Def == nil && nb.Def == nil {
			// Committed regions are rectangles; their octagon lift has
			// redundant diagonal bounds (each diagonal gap is at most the
			// larger axis gap), so DistOO reduces to the much cheaper
			// rectangle distance. This is the hot call of every pairing
			// scan, and in zero-skew runs no node is ever deferred.
			return geom.DistRR(na.Region, nb.Region)
		}
		return geom.DistOO(na.ActiveRegion(), nb.ActiveRegion())
	}
	ocfg := order.Config{Strategy: b.opt.Strategy, Key: b.mergeKey}
	if b.useGridPairer(n) {
		// Index nodes by the u/v bounds of their active regions: the bound
		// distance under-estimates the true octagon distance, keeping the
		// grid's pruning sound, while dist/key stay exact. mergeKey only
		// ever adds non-negative snaking excess to the distance, so
		// key ≥ dist holds and grid pairing is exact. A committed node is
		// exact: its box is its Region (ActiveRegion().Bounds() bit for
		// bit), and dist between two committed nodes is DistRR of their
		// Regions, so the walk keys such pairs by the box distance it has
		// already computed. The first batch query measures the grid's cell
		// edge over the initial boxes.
		box := func(id int) (geom.Rect, bool) {
			nd := b.nodes[id]
			if nd.Def == nil {
				return nd.Region, true
			}
			return nd.Def.Region.Bounds(), false
		}
		ocfg.Pairer = spatial.NewGridPairer(0, 2*n-1, box, dist, ocfg.Key)
	}
	q := order.New(ocfg, n, dist)
	for {
		if b.done != nil {
			select {
			case <-b.done:
				b.err = fmt.Errorf("core: build cancelled: %w", b.opt.Ctx.Err())
				return
			default:
			}
		}
		batch := q.NextBatch()
		if len(batch) == 0 {
			break
		}
		b.runBatch(q, batch)
	}
	b.stats.PairScans = q.Scans()
	if gp, ok := ocfg.Pairer.(*spatial.GridPairer); ok {
		b.stats.GridRebuilds = gp.Index().Rebuilds()
	}
	if tr := b.opt.Trace; tr != nil {
		tr.Metric(obs.MetricPairingNS, float64(q.BatchTime().Nanoseconds()))
		if gp, ok := ocfg.Pairer.(*spatial.GridPairer); ok {
			tr.Metric(obs.MetricGridRebuildNS, float64(gp.Index().RebuildTime().Nanoseconds()))
		}
		if b.waveRounds > 0 {
			tr.Metric(obs.MetricWaveRounds, float64(b.waveRounds))
			tr.Metric(obs.MetricWaveSlotNS, float64(b.waveSlotNS))
			tr.Metric(obs.MetricWaveIdleNS, float64(b.waveIdleNS))
			tr.Metric(obs.MetricWaveBatchMax, float64(b.waveBatchMax))
		}
	}
	b.root = b.nodes[len(b.nodes)-1]
}

// finishRoot pins a still-deferred tree root at the split realizing its
// closest approach to the clock source.
func (b *builder) finishRoot() {
	if b.root.Def == nil {
		return
	}
	src := geom.OctFromUV(geom.ToUV(b.source))
	q, _ := geom.ClosestPoints(b.root.Def.Region, src)
	b.resolve(b.root, geom.DistRP(b.root.Left.Region, q))
}

// useGridPairer decides whether this run pairs on the spatial grid:
// PairerAuto from GridPairerThreshold items up, PairerScan never.
func (b *builder) useGridPairer(n int) bool {
	return b.opt.Pairer == PairerAuto && n >= GridPairerThreshold
}
