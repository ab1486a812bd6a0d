// Package core implements AST-DME, the associative-skew clock tree router of
// the reproduced thesis (Kim, "Associative Skew Clock Routing for Difficult
// Instances", Texas A&M, 2006), together with its degenerate single-group
// modes: exact zero-skew DME (greedy-DME) and bounded-skew BST routing, whose
// 10 ps-bound single-group form is the thesis's EXT-BST baseline.
//
// # Algorithm
//
// The router follows the AST-DME pseudocode of the thesis (Fig. 6). Starting
// from one subtree per sink, it repeatedly merges the minimum-cost pair of
// subtrees (see package order) until one tree remains, then embeds the tree
// top-down (DME). Four mechanisms carry the thesis's ideas:
//
// *Windows.* Writing X = WireDelay(ea,Ca) − WireDelay(eb,Cb) for the delay
// shift a merge applies between its two sides, each group g present in both
// subtrees constrains X to the window
//
//	[ Db(g).Hi − Da(g).Lo − B ,  Db(g).Lo − Da(g).Hi + B ]
//
// where B is the intra-group skew bound (0 in the thesis's formulation).
// Same-group merges (window a point at B=0) reproduce exact DME/Tsay
// merging; merges of subtrees from different groups (no window) are free and
// cost exactly the subtree distance — the shortest-distance-region merge of
// thesis Fig. 3; partially-shared merges (Figs. 4, 5) intersect the windows
// of all shared groups. Note the constraints are per *raw* group: merges of
// subtrees with disjoint group sets stay free even after other subtrees have
// related their groups, which is where the freedom on intermingled instances
// lives.
//
// *Deferred splits.* A merge whose window leaves slack does not commit the
// split of its wire between the two child edges; the node keeps the whole
// feasible sub-region of the SDR (an octagon; see geom.SDR) in a
// ctree.Deferral record, which Resolve drops once the split commits — the
// thesis's merging region, whose extent "implies a bounded range for the
// inter-group skew". The split is pinned only when the node is merged
// again: without constraints at the closest approach to the partner (the
// thesis's collapse of a merging region to its nearest boundary, Ch. V.E),
// otherwise by a joint search over both subtrees' split ranges that makes
// the shared windows intersect — "find an intersection between the
// feasible merging regions" (Fig. 5) — at the least committed cost.
//
// *Offset registry.* Whenever a node commits (resolves) while containing
// several groups, the relative offsets among those groups are fixed inside
// it; per thesis Ch. V.E.1 the groups involved "can be treated to form a new
// group G1∪G2∪G3". A weighted union-find registers the first-committed
// offset of every group pair, and merges of subtrees with *related* groups
// are leashed to the registered offsets within the intra-group bound B. The
// leash is not relaxed: without it, independently built subtrees commit
// contradictory offsets that later merges must reconcile by sneaking (on
// r1–r5 intermingled in 4 and 8 groups at B = 0 and 10 ps, removing it
// multiplied sneak wire 5–300× and lifted the worst intra-group skew from
// 2–61 ps to 55–190 ps), and on the 40 Table I and II rows at B = 10 no
// build with the leash widened by 2.5 to 60 ps, or removed, kept every group
// within B (480 builds, under both split rules). Merges of subtrees with
// disjoint raw group sets remain completely free: the bottom-level freedom
// on intermingled instances.
//
// *Wire sneaking.* When the hard windows of a merge still conflict (two
// subtrees committed contradictory offsets), the generalized form of thesis
// Eqs. 5.1–5.3 elongates the incoming edges of the maximal pure-group
// subtrees of the offending group — coherently shifting that group alone —
// iterating the solve with full recomputation so the added snake capacitance
// is coupled back exactly (the thesis solves the uncoupled system once, for
// the single-edge case).
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/spatial"
)

// PairerMode selects the nearest-neighbor engine behind the merging order.
type PairerMode int

const (
	// PairerAuto (the default) uses the spatial grid pairer from
	// GridPairerThreshold items up, and the all-pairs oracle below.
	PairerAuto PairerMode = iota
	// PairerScan forces the all-pairs O(n²) oracle, against which the
	// grid differentials pin PairerAuto.
	PairerScan
)

// GridPairerThreshold is the item count (sinks, or roots for a stitch) at
// which PairerAuto switches from the all-pairs oracle to the spatial grid
// pairer. It is the crossover measured on a 2-vCPU Xeon VM with one merge
// worker: whole builds on the grid beat the scan from 64 items at zero skew
// and from about 32 under AST-DME at 10 ps (at 256 items 2.5× and 1.8×, at
// 1.9k items 11× and 5.4×), while below that the scan is faster by tens of
// µs per build. The floor keeps the 4–8-root shard stitch on the scan. Both
// engines route bitwise-identical trees, so the cutoff moves time only.
const GridPairerThreshold = 64

// Options configures a routing run. The zero value routes associative-skew
// with zero intra-group bound under the default Elmore parameters. The
// merge wave runs each round's batch on GOMAXPROCS workers (see
// builder.runBatch); every GOMAXPROCS routes the same tree.
type Options struct {
	// Model is the delay model; nil selects DefaultModel().
	Model rctree.Model
	// IntraSkewBound is the skew bound (ps) enforced within each group, or
	// over all sinks in SingleGroup mode. The thesis's formulation uses 0
	// (exact zero intra-group skew).
	IntraSkewBound float64
	// SingleGroup ignores sink groups: all sinks form one group bounded by
	// IntraSkewBound. SingleGroup at bound 0 is greedy-DME (ZST); at 10 ps
	// it is the thesis's EXT-BST baseline.
	SingleGroup bool
	// Pairer selects the nearest-neighbor engine of the merging order:
	// PairerAuto (the grid from GridPairerThreshold items up) or PairerScan
	// (the all-pairs oracle). The merge key never drops below the pair
	// distance, so the grid's pruning is exact (see internal/spatial), and
	// the engines are differentially pinned to route identical trees: the
	// choice moves pairing time and Stats.PairScans/GridRebuilds only.
	Pairer PairerMode
	// EndpointSplit disables split deferral at unconstrained merges and
	// commits the e=0 endpoint instead (ablation knob: quantifies the value
	// of keeping whole merging regions).
	EndpointSplit bool
	// GroupOffsets, when non-nil, prescribes the inter-group skew targets
	// S_{0,g} explicitly (the thesis's Ch. II: "we need to specify the
	// inter-group skew S_{i,j} for all groups either implicitly or
	// explicitly"): entry g is the desired delay of group g's sinks minus
	// group 0's, in ps. Must have length NumGroups with entry 0 == 0. The
	// offsets are enforced within IntraSkewBound: every sink pair of groups
	// i and j differs by GroupOffsets[j] − GroupOffsets[i] within that
	// bound, so a range [lo, hi] asked of delay(j) − delay(i) is met by
	// prescribing its midpoint when it is at least twice the bound wide.
	// Nil lets the router commit offsets implicitly as merging proceeds (the
	// thesis's default).
	GroupOffsets []float64
	// Shards, when ≥ 1, requests the spatially sharded build: the instance
	// is cut into Shards sub-instances routed concurrently and stitched
	// skew-aware at the top (see internal/shard). The sharded pipeline lives
	// above this package, so Build itself rejects Shards > 1 rather than
	// silently ignoring it; callers wanting sharding go through shard.Build,
	// which honors this field (0 = off, 1 = the sharded pipeline with a
	// single shard — bitwise-identical to the unsharded build).
	Shards int
	// Pilot requests the sharded pipeline's pilot offset pass: before the
	// concurrent shard builds, a deterministic per-group sink sample is
	// routed unsharded, the inter-group offsets it commits are read back
	// out of its registry (Registry.Offsets) and prescribed to every shard
	// and to the stitch through the GroupOffsets machinery — the thesis
	// frames the inter-group skews S_{i,j} as a global contract, specified
	// once, not k times independently (without the pilot, shards commit
	// contradictory offsets that only the stitch windows reconcile,
	// degrading residual intra-group skew at shard seams). Like Shards, the
	// pass lives in shard.Build; core.Build rejects the flag rather than
	// silently ignoring it. Incompatible with SingleGroup (no inter-group
	// offsets exist) and with explicit GroupOffsets (the caller already
	// prescribed the contract).
	Pilot bool
	// Trace, when non-nil, records the run's phase timings (the "route"
	// span with per-round merge-wave sub-spans) and exports the run's Stats
	// as metrics into the trace's registry. Tracing is purely observational:
	// a traced build is bitwise-identical to an untraced one, and a nil
	// Trace costs nothing on the hot path (see internal/obs's disabled-path
	// contract). A Trace is single-goroutine — concurrent sub-builds (the
	// sharded pipeline) give each build its own child trace; the parallel
	// merge wave's worker builders run untraced and report their rounds
	// through this coordinating builder.
	Trace *obs.Trace
	// Ctx, when non-nil, bounds the build: the merging loop checks it once
	// per round and Build/BuildSubtree/MergeRoots return a "build cancelled"
	// error wrapping ctx.Err() as soon as the current round commits, so a
	// cancelled build returns within one merge round. nil (or
	// context.Background(), whose Done channel is nil) costs nothing on the
	// hot path — the loop never reads a clock or allocates for the check.
	// Carried in Options rather than as a parameter so the sharded
	// pipeline's many stages thread one cancellation scope without widening
	// every signature; the dispatch layer overrides it per execution.
	Ctx context.Context
}

// DefaultModel returns the Elmore model used throughout the experiments:
// 0.1 Ω and 0.02 fF per unit length. The values are calibrated so the
// synthetic r1–r5 instances see zero-skew source-to-sink delays of 29 ns
// (r1) to 620 ns (r5) and leaf-level merge imbalances of tens of ps,
// matching the regime of the thesis's experiments where the 10 ps EXT-BST
// bound is tight.
func DefaultModel() rctree.Model { return rctree.NewElmore(0.1, 0.02) }

// Stats counts notable events of a routing run.
type Stats struct {
	// Merges is the total number of subtree merges (n−1).
	Merges int
	// SameGroup, CrossGroup, Shared classify merges by the thesis's cases:
	// both subtrees from one raw group / no shared raw group / some shared.
	SameGroup, CrossGroup, Shared int
	// Deferred counts merges that kept their split open over a region.
	Deferred int
	// GroupUnions counts group-pair offset registrations.
	GroupUnions int
	// MergeSnakes counts merges that snaked the new edges beyond distance d.
	MergeSnakes int
	// SneakEvents counts wire-sneaking adjustments on interior handle edges;
	// SneakWire is their total added wirelength.
	SneakEvents int
	SneakWire   float64
	// SneakIters counts leash/sneak loop iterations that attempted to close
	// an infeasible window gap (SneakEvents of them succeeded; the rest
	// aborted to a compromise). The iteration budget is maxSneakIter per
	// merge.
	SneakIters int
	// PairScans is the number of candidate pair evaluations the merging
	// order performed — the work metric the spatial pairer drives
	// sub-quadratic (all-pairs pairing scans Θ(n²) of them per round): each
	// round's batch query scans the cells near each item.
	PairScans int64
	// GridRebuilds counts the spatial pairer's index filings after the
	// first (all zero under the all-pairs oracle): LiveDrop is about one per
	// merge round, the batch query's re-pack (see spatial.RebuildStats).
	// Like PairScans it is recorded once per run from the pairing engine,
	// not accumulated by merge bodies.
	GridRebuilds spatial.RebuildStats
	// SneakUnresolved counts merges where sneaking could not (affordably)
	// reconcile conflicting windows; the residual intra-group skew is then
	// observable via package eval.
	SneakUnresolved int
}

// add accumulates a worker's per-merge stat deltas. PairScans is excluded:
// it is recorded once per run from the order queue, not by merge bodies.
func (s *Stats) add(d Stats) {
	s.Merges += d.Merges
	s.SameGroup += d.SameGroup
	s.CrossGroup += d.CrossGroup
	s.Shared += d.Shared
	s.Deferred += d.Deferred
	s.GroupUnions += d.GroupUnions
	s.MergeSnakes += d.MergeSnakes
	s.SneakEvents += d.SneakEvents
	s.SneakWire += d.SneakWire
	s.SneakIters += d.SneakIters
	s.SneakUnresolved += d.SneakUnresolved
}

// AddRun accumulates a complete sub-build's stats into s, including the
// per-run engine metrics (PairScans, GridRebuilds) that the merge workers'
// per-batch deltas deliberately exclude — sub-builds own their pairing
// engines. Used by the sharded pipeline (internal/shard) to aggregate shard
// and stitch runs; keep it in sync with the fields of Stats.
func (s *Stats) AddRun(d Stats) {
	s.add(d)
	s.PairScans += d.PairScans
	s.GridRebuilds.Add(d.GridRebuilds)
}

// Result is a completed routing.
type Result struct {
	// Instance is the routed instance (with its original groups, even in
	// SingleGroup mode).
	Instance *ctree.Instance
	// Root is the embedded merge tree.
	Root *ctree.Node
	// SourceWire is the wirelength from the clock source to the tree root.
	SourceWire float64
	// Wirelength is the total committed wirelength including SourceWire.
	Wirelength float64
	// MaxGroupSkew is the largest delay spread (ps) within one routed group,
	// read from the root's delay set: the quantity Options.IntraSkewBound
	// bounds. In SingleGroup mode it is the spread over all sinks.
	MaxGroupSkew float64
	// Options echoes the configuration used.
	Options Options
	// Stats describes the run.
	Stats Stats
}

// skewNoisePs is the float noise a skew bound tolerates, in ps: far below
// any skew a routing decision can leave (hundredths of a ps and up).
const skewNoisePs = 1e-3

// OverBound reports whether the routed tree breaks its skew bound by more
// than float noise.
func (r *Result) OverBound() bool {
	return r.MaxGroupSkew > r.Options.IntraSkewBound+skewNoisePs
}

// normalizeOptions applies defaults and validates the options against the
// instance's group count. It is shared by Build, BuildSubtree and
// MergeRoots, and is idempotent, so the sharded pipeline may normalize once
// and pass the result through every stage.
func normalizeOptions(numGroups int, opt *Options) error {
	if opt.Model == nil {
		opt.Model = DefaultModel()
	}
	if v := opt.IntraSkewBound; math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: IntraSkewBound = %v is not finite", v)
	}
	if opt.IntraSkewBound < 0 {
		return fmt.Errorf("core: IntraSkewBound = %v is negative", opt.IntraSkewBound)
	}
	if opt.Shards < 0 {
		return fmt.Errorf("core: Shards = %d is negative", opt.Shards)
	}
	if opt.Pilot {
		if opt.SingleGroup {
			return fmt.Errorf("core: Pilot is incompatible with SingleGroup (no inter-group offsets to prescribe)")
		}
		if opt.GroupOffsets != nil {
			return fmt.Errorf("core: Pilot is incompatible with explicit GroupOffsets (the offset contract is already prescribed)")
		}
	}

	if opt.GroupOffsets != nil {
		if opt.SingleGroup {
			return fmt.Errorf("core: GroupOffsets is incompatible with SingleGroup")
		}
		if len(opt.GroupOffsets) != numGroups {
			return fmt.Errorf("core: GroupOffsets has %d entries for %d groups",
				len(opt.GroupOffsets), numGroups)
		}
		if opt.GroupOffsets[0] != 0 {
			return fmt.Errorf("core: GroupOffsets[0] must be 0 (the reference group)")
		}
		for g, v := range opt.GroupOffsets {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: GroupOffsets[%d] = %v is not finite", g, v)
			}
		}
	}
	return nil
}

// Build routes the instance and returns the embedded tree.
func Build(in *ctree.Instance, opt Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := normalizeOptions(in.NumGroups, &opt); err != nil {
		return nil, err
	}
	if opt.Shards > 1 {
		// The sharded pipeline lives in internal/shard (it layers the
		// partitioner and top-level stitch over this package); refusing here
		// keeps the flag from being silently ignored.
		return nil, fmt.Errorf("core: Shards = %d requires the sharded builder; call shard.Build (core.Build routes unsharded)", opt.Shards)
	}
	if opt.Pilot {
		// Likewise for the pilot offset pass: it exists to align shard
		// builds, so requesting it on the unsharded path is a mistake worth
		// surfacing rather than ignoring.
		return nil, fmt.Errorf("core: Pilot requires the sharded pipeline; set Shards ≥ 1 and call shard.Build")
	}

	reg, err := NewRegistry(in, opt)
	if err != nil {
		return nil, err
	}
	b := &builder{opt: opt, numGroups: in.NumGroups, source: in.Source, uf: &reg.uf, done: doneOf(opt.Ctx)}
	b.initScratch()
	b.initSinkNodes(len(in.Sinks), func(i int) *ctree.Sink { return &in.Sinks[i] })
	b.route()
	if b.err != nil {
		return nil, b.err
	}
	b.finishRoot()
	b.stats.GroupUnions += reg.preUnions

	res := &Result{
		Instance:     in,
		Root:         b.root,
		SourceWire:   geom.DistRP(b.root.Region, geom.ToUV(in.Source)),
		MaxGroupSkew: b.root.Delay.MaxWidth(),
		Options:      opt,
		Stats:        b.stats,
	}
	res.Wirelength = b.root.Wirelength() + res.SourceWire
	emb := opt.Trace.Begin("embed")
	res.Root.Embed(geom.ToUV(in.Source))
	emb.End()
	RecordStatsMetrics(opt.Trace, res.Stats)
	return res, nil
}

// Subtree is the product of a sub-instance build (BuildSubtree) or a root
// stitch (MergeRoots): an unembedded subtree plus the stats of the merges
// that built it. A BuildSubtree root may still be deferred (it holds a
// ctree.Deferral) — its final split is left open so a later MergeRoots can
// resolve it jointly against its stitch partners instead of pinning it
// blind.
type Subtree struct {
	Root  *ctree.Node
	Stats Stats
}

// BuildSubtree routes a sub-instance, the given sinks of an instance with
// numGroups groups, against the supplied registry, using exactly the same
// merge engine as Build. The sinks are routed in the order given, and each
// leaf takes its sink's pointer and ID (the sink's id in its instance), so a
// sub-build over pointers into an instance routes that subset in place — no
// instance cloning or sink transplanting. The caller owns sink validation
// past the group index and the registry's lifecycle; the returned root is
// not embedded and may be deferred. Stats.GroupUnions excludes the
// registry's construction-time prescribed-offset unions (aggregate them once
// via Registry.PreUnions).
func BuildSubtree(sinks []*ctree.Sink, numGroups int, opt Options, reg *Registry) (*Subtree, error) {
	if err := normalizeOptions(numGroups, &opt); err != nil {
		return nil, err
	}
	if reg.Groups() != numGroups {
		return nil, fmt.Errorf("core: registry over %d groups for instance with %d", reg.Groups(), numGroups)
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("core: BuildSubtree over an empty sink set")
	}
	for i, s := range sinks {
		if s == nil {
			return nil, fmt.Errorf("core: BuildSubtree sink %d is nil", i)
		}
		if s.Group < 0 || s.Group >= numGroups {
			return nil, fmt.Errorf("core: BuildSubtree sink %d in group %d, out of range [0, %d)", s.ID, s.Group, numGroups)
		}
	}
	b := &builder{opt: opt, numGroups: numGroups, uf: &reg.uf, done: doneOf(opt.Ctx)}
	b.initScratch()
	b.initSinkNodes(len(sinks), func(i int) *ctree.Sink { return sinks[i] })
	b.route()
	if b.err != nil {
		return nil, b.err
	}
	RecordStatsMetrics(opt.Trace, b.stats)
	return &Subtree{Root: b.root, Stats: b.stats}, nil
}

// MergeRoots merges pre-built subtree roots of an instance with numGroups
// groups and its clock source at source into one tree under the full
// constraint machinery — shared-group windows, the registry leash, joint
// resolution of deferred roots, and wire sneaking — exactly as intra-build
// merges are performed, and resolves any final deferred split toward the
// source. This is the skew-aware generalization of the stitch baseline's
// unconstrained root merging (internal/stitch): where the baseline connects
// roots at bare distance, MergeRoots keeps enforcing the intra-group bound
// across the stitched seams. The returned root is not embedded; the roots'
// subtrees are adopted (and deferred roots committed) in place.
func MergeRoots(roots []*ctree.Node, numGroups int, source geom.Point, opt Options, reg *Registry) (*Subtree, error) {
	if err := normalizeOptions(numGroups, &opt); err != nil {
		return nil, err
	}
	if reg.Groups() != numGroups {
		return nil, fmt.Errorf("core: registry over %d groups for instance with %d", reg.Groups(), numGroups)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("core: MergeRoots over no roots")
	}
	b := &builder{opt: opt, numGroups: numGroups, source: source, uf: &reg.uf, done: doneOf(opt.Ctx)}
	b.initScratch()
	b.initRootNodes(roots)
	b.route()
	if b.err != nil {
		return nil, b.err
	}
	b.finishRoot()
	RecordStatsMetrics(opt.Trace, b.stats)
	return &Subtree{Root: b.root, Stats: b.stats}, nil
}

// doneOf returns ctx's cancellation channel; nil contexts (and
// context.Background, whose Done is nil) disable the per-round check
// entirely.
func doneOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ZST routes ignoring groups with exact zero global skew (greedy-DME).
func ZST(in *ctree.Instance, opt Options) (*Result, error) {
	opt.SingleGroup = true
	opt.IntraSkewBound = 0
	return Build(in, opt)
}

// EXTBST routes ignoring groups under a global skew bound — the thesis's
// extended greedy-BST baseline ("simply set bounded skew range as 10 ps and
// run the EXT-BST algorithm").
func EXTBST(in *ctree.Instance, boundPs float64, opt Options) (*Result, error) {
	opt.SingleGroup = true
	opt.IntraSkewBound = boundPs
	return Build(in, opt)
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("merges=%d (same=%d cross=%d shared=%d deferred=%d unions=%d) snakes=%d sneaks=%d/%d iters (+%.0f wire, %d unresolved) scans=%d rebuilds=%d",
		s.Merges, s.SameGroup, s.CrossGroup, s.Shared, s.Deferred, s.GroupUnions,
		s.MergeSnakes, s.SneakEvents, s.SneakIters, s.SneakWire, s.SneakUnresolved, s.PairScans,
		s.GridRebuilds.LiveDrop)
}
