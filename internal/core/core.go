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
// feasible sub-region of the SDR (an octagon; see geom.SDR) — the thesis's
// merging region, whose extent "implies a bounded range for the inter-group
// skew". The split is pinned only when the node is merged again: without
// constraints at the closest approach to the partner (the thesis's collapse
// of a merging region to its nearest boundary, Ch. V.E), otherwise by a
// joint search over both subtrees' split ranges that makes the shared
// windows intersect — "find an intersection between the feasible merging
// regions" (Fig. 5) — at the least committed cost.
//
// *Offset registry.* Whenever a node commits (resolves) while containing
// several groups, the relative offsets among those groups are fixed inside
// it; per thesis Ch. V.E.1 the groups involved "can be treated to form a new
// group G1∪G2∪G3". A weighted union-find registers the first-committed
// offset of every group pair, and merges of subtrees with *related* groups
// are leashed to the registered offsets within
// IntraSkewBound+InterSkewBound — without the leash, independently built
// subtrees commit contradictory offsets that later merges must reconcile by
// sneaking: on r1–r5 intermingled in 4 and 8 groups at B = 0 and 10 ps,
// removing it (InterSkewBound < 0) multiplies sneak wire 5–300× and lifts
// the worst intra-group skew from 2–61 ps to 55–190 ps. Merges of subtrees
// with disjoint raw group sets remain completely free: the bottom-level
// freedom on intermingled instances.
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
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/rctree"
	"repro/internal/spatial"
)

// PairerMode selects the nearest-neighbor engine behind the merging order.
type PairerMode int

const (
	// PairerAuto (the default) uses the spatial grid pairer from
	// GridPairerThreshold items up whenever it is exact for the run's merge
	// key, and the all-pairs oracle otherwise.
	PairerAuto PairerMode = iota
	// PairerScan forces the all-pairs O(n²) oracle.
	PairerScan
	// PairerGrid forces the spatial grid pairer. The caller is responsible
	// for key soundness (key ≥ distance; see internal/spatial).
	PairerGrid
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
// with zero intra-group bound under the default Elmore parameters.
type Options struct {
	// Model is the delay model; nil selects DefaultModel().
	Model rctree.Model
	// IntraSkewBound is the skew bound (ps) enforced within each group.
	// The thesis's formulation uses 0 (exact zero intra-group skew).
	IntraSkewBound float64
	// InterSkewBound is the extra window (ps) within which committed
	// inter-group offsets (the thesis's by-product skews S_{i,j}) may float
	// around their first-registered values: related groups are leashed to
	// within IntraSkewBound+InterSkewBound of the registered offsets. The
	// thesis's merging regions imply such a data-dependent bounded range
	// (Ch. V.D). The default 0 freezes offsets once committed, which keeps
	// intra-group skew at the bound; positive values trade bounded
	// intra-group degradation for extra placement freedom (ablation knob).
	// Values < 0 remove the leash entirely, which destabilizes the offset
	// system (see the package comment's offset registry). Ignored in
	// SingleGroup mode.
	InterSkewBound float64
	// SingleGroup ignores sink groups: all sinks form one group bounded by
	// GlobalBound. SingleGroup+GlobalBound=0 is greedy-DME (ZST);
	// SingleGroup+GlobalBound=10 is the thesis's EXT-BST baseline.
	SingleGroup bool
	// GlobalBound is the skew bound (ps) used in SingleGroup mode.
	GlobalBound float64
	// Order configures the merging order.
	Order order.Config
	// Pairer selects the nearest-neighbor engine of the merging order:
	// PairerAuto (the grid from GridPairerThreshold items up, when exact),
	// PairerScan (the all-pairs oracle), or PairerGrid (force the spatial
	// grid). Ignored when Order.Pairer is set explicitly. Auto never selects
	// the grid under DelayTargetBias or a custom Order.Key: both can push
	// the pair priority below the pair distance, which defeats the grid's
	// geometric pruning bound (see internal/spatial). The engines are
	// differentially pinned to route identical trees, so the choice moves
	// pairing time and Stats.PairScans/GridRebuilds only.
	Pairer PairerMode
	// DelayTargetBias, when positive, enables the delay-target merging-order
	// enhancement (thesis enhancement 2, after Chaturvedi–Hu): the pair
	// priority becomes cost − bias·(meanDelay_i + meanDelay_j). Units are
	// length per ps.
	DelayTargetBias float64
	// EndpointSplit disables split deferral at unconstrained merges and
	// commits the e=0 endpoint instead (ablation knob: quantifies the value
	// of keeping whole merging regions).
	EndpointSplit bool
	// PairConstraints optionally imposes inter-group skew ranges between
	// specific group pairs — the "local bound" / prescribed-skew constraint
	// forms of the thesis's introduction (its refs [5–7]); associative skew
	// plus such ranges covers the whole taxonomy the thesis surveys. Each
	// constraint is enforced through the merge windows whenever the two
	// groups arrive on opposite sides of a merge (best effort otherwise;
	// eval.PairSkews verifies the outcome).
	PairConstraints []PairConstraint
	// GroupOffsets, when non-nil, prescribes the inter-group skew targets
	// S_{0,g} explicitly (the thesis's Ch. II: "we need to specify the
	// inter-group skew S_{i,j} for all groups either implicitly or
	// explicitly"): entry g is the desired delay of group g's sinks minus
	// group 0's, in ps. Must have length NumGroups with entry 0 == 0. The
	// offsets are enforced within IntraSkewBound+InterSkewBound. Nil lets
	// the router commit offsets implicitly as merging proceeds (the
	// thesis's default).
	GroupOffsets []float64
	// MaxSneakIter caps the coupled wire-sneaking iterations per merge
	// (default 8).
	MaxSneakIter int
	// SneakCostCap aborts a sneak whose wire exceeds this multiple of the
	// merge distance, falling back to the least-violation compromise
	// (default 8).
	SneakCostCap float64
	// MergeWorkers is the number of goroutines executing the merge bodies of
	// each round's disjoint batch (window intersection, joint resolution,
	// delay evaluation, node construction). 0 (the default) selects
	// GOMAXPROCS; 1 forces fully serial execution. Any setting produces
	// bitwise-identical trees: batches are scheduled so concurrently
	// executed merges cannot observe each other's group-offset commitments,
	// and results are committed serially in batch order (see
	// builder.runBatch).
	MergeWorkers int
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
	// SneakProbe, when non-nil, records the leash/sneak loop's per-iteration
	// state (window bounds, infeasibility gap, sneak wire, and the
	// registry's per-group cumulative offsets) — the instrument for the
	// InterSkewBound W-sweep instability. Events carry a per-merge sequence
	// number; recording happens only on the coordinating builder, so runs
	// wanting complete capture set MergeWorkers to 1 (parallel wave workers
	// skip the probe rather than race on it). Like Trace, the probe is
	// purely observational and nil costs nothing.
	SneakProbe *obs.Probe
}

// PairConstraint bounds the signed inter-group skew delay(J) − delay(I)
// to [MinPs, MaxPs].
type PairConstraint struct {
	I, J         int
	MinPs, MaxPs float64
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
	// aborted to a compromise). The iteration budget is MaxSneakIter per
	// merge.
	SneakIters int
	// PairScans is the number of candidate pair evaluations the merging
	// order performed — the work metric the spatial pairer drives
	// sub-quadratic (all-pairs pairing scans Θ(n²) of them per round).
	PairScans int64
	// GridRebuilds counts the spatial pairer's index rebuilds by trigger
	// (all zero under the all-pairs oracle). Like PairScans it is recorded
	// once per run from the pairing engine, not accumulated by merge bodies.
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
	// Options echoes the configuration used.
	Options Options
	// Stats describes the run.
	Stats Stats
}

// normalizeOptions applies defaults and validates the options against the
// instance. It is shared by Build, BuildSubtree and MergeRoots, and is
// idempotent, so the sharded pipeline may normalize once and pass the result
// through every stage.
func normalizeOptions(in *ctree.Instance, opt *Options) error {
	if opt.Model == nil {
		opt.Model = DefaultModel()
	}
	if opt.MaxSneakIter <= 0 {
		opt.MaxSneakIter = 8
	}
	if opt.SneakCostCap <= 0 {
		opt.SneakCostCap = 8
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
		if len(opt.GroupOffsets) != in.NumGroups {
			return fmt.Errorf("core: GroupOffsets has %d entries for %d groups",
				len(opt.GroupOffsets), in.NumGroups)
		}
		if opt.GroupOffsets[0] != 0 {
			return fmt.Errorf("core: GroupOffsets[0] must be 0 (the reference group)")
		}
	}

	if opt.Pairer == PairerGrid && opt.DelayTargetBias > 0 && opt.Order.Key == nil {
		// The bias subtracts delay terms from the default merge key, so the
		// key can drop below the pair distance and the grid's geometric
		// pruning bound no longer holds — no caller action can make it
		// sound, so refuse rather than silently return a different tree.
		return fmt.Errorf("core: PairerGrid is incompatible with DelayTargetBias (biased keys defeat grid pruning); use PairerScan or PairerAuto")
	}

	for _, pc := range opt.PairConstraints {
		if pc.I < 0 || pc.I >= in.NumGroups || pc.J < 0 || pc.J >= in.NumGroups || pc.I == pc.J {
			return fmt.Errorf("core: pair constraint (%d,%d) out of range", pc.I, pc.J)
		}
		if pc.MinPs > pc.MaxPs {
			return fmt.Errorf("core: pair constraint (%d,%d) has Min > Max", pc.I, pc.J)
		}
	}
	return nil
}

// Build routes the instance and returns the embedded tree.
func Build(in *ctree.Instance, opt Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := normalizeOptions(in, &opt); err != nil {
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
	b := &builder{opt: opt, in: in, uf: &reg.uf, done: doneOf(opt.Ctx)}
	b.initScratch()
	b.initSinkNodes(nil)
	b.route()
	if b.err != nil {
		return nil, b.err
	}
	b.finishRoot()
	b.stats.GroupUnions += reg.preUnions

	res := &Result{
		Instance:   in,
		Root:       b.root,
		SourceWire: geom.DistRP(b.root.Region, geom.ToUV(in.Source)),
		Options:    opt,
		Stats:      b.stats,
	}
	res.Wirelength = b.root.Wirelength() + res.SourceWire
	emb := opt.Trace.Begin("embed")
	res.Root.Embed(geom.ToUV(in.Source))
	emb.End()
	RecordStatsMetrics(opt.Trace, res.Stats)
	return res, nil
}

// Registry is a shareable group-offset registry: the committed-offset view
// (the weighted union-find of the thesis's by-product skews) detached from
// any one builder, so several sub-instance builds can route against a common
// base. The sharded pipeline freezes one base Registry during its concurrent
// phase and hands each shard a private Clone — sharing by frozen snapshot
// rather than by lock, which keeps the concurrent builds mutex-free and
// deterministic — then stitches on the base itself.
type Registry struct {
	uf groupUF
	// preUnions counts the prescribed-offset unions applied at construction
	// (reported once per run in Stats.GroupUnions, not once per shard).
	preUnions int
}

// NewRegistry returns a registry over the instance's groups with any
// prescribed Options.GroupOffsets pre-registered relative to group 0: every
// subsequent merge of related subtrees enforces the prescribed targets
// through the registry leash.
func NewRegistry(in *ctree.Instance, opt Options) (*Registry, error) {
	if err := normalizeOptions(in, &opt); err != nil {
		return nil, err
	}
	r := &Registry{uf: *newGroupUF(in.NumGroups)}
	if opt.GroupOffsets != nil {
		for g := 1; g < in.NumGroups; g++ {
			r.uf.union(0, g, opt.GroupOffsets[g])
			r.preUnions++
		}
	}
	return r, nil
}

// PreUnions reports the prescribed-offset unions applied at construction.
// Callers aggregating sub-build stats add it exactly once.
func (r *Registry) PreUnions() int { return r.preUnions }

// Groups returns the number of groups the registry was built over.
func (r *Registry) Groups() int { return len(r.uf.parent) }

// Offsets resolves the registry's committed inter-group offsets against
// group 0: entry g is the registered delay of group g's sinks minus group
// 0's, in ps — the explicit S_{0,g} form Options.GroupOffsets accepts, so
// offsets committed by one build can be prescribed verbatim to another
// (NewRegistry(in, Options{GroupOffsets: r.Offsets()}) round-trips). It
// errors when some group is not (transitively) related to group 0: the
// source build never committed that pair's offset, so no complete global
// contract exists yet and the caller must relate more groups first (the
// sharded pipeline's pilot pass falls back to routing a larger sample).
func (r *Registry) Offsets() ([]float64, error) {
	if len(r.uf.parent) == 0 {
		return nil, fmt.Errorf("core: Offsets over an empty registry")
	}
	root0, off0 := r.uf.find(0)
	out := make([]float64, len(r.uf.parent))
	for g := 1; g < len(out); g++ {
		rg, offg := r.uf.find(g)
		if rg != root0 {
			return nil, fmt.Errorf("core: groups %d and 0 are unrelated in the registry (no offset committed between them)", g)
		}
		// Normalized delays coincide under the leash: delay(g) − offg =
		// delay(0) − off0, so the registered inter-group skew S_{0,g} =
		// delay(g) − delay(0) = offg − off0.
		out[g] = offg - off0
	}
	return out, nil
}

// Clone returns an independent copy of the registry's committed state.
// Cloning is how concurrent sub-builds share a base view without locks: the
// base stays frozen while clones mutate privately.
func (r *Registry) Clone() *Registry {
	c := &Registry{preUnions: r.preUnions}
	r.uf.cloneInto(&c.uf)
	return c
}

// Subtree is the product of a sub-instance build (BuildSubtree) or a root
// stitch (MergeRoots): an unembedded subtree plus the stats of the merges
// that built it. A BuildSubtree root may still be Deferred — its final split
// is left open so a later MergeRoots can resolve it jointly against its
// stitch partners instead of pinning it blind.
type Subtree struct {
	Root  *ctree.Node
	Stats Stats
	// Trace is the build's trace node (Options.Trace echoed back; nil when
	// untraced) so pipeline stages can pass each sub-build's recorded
	// phases along with its product.
	Trace *obs.Trace
}

// BuildSubtree routes the sub-instance consisting of the given sink IDs
// (nil = all sinks) against the supplied registry, using exactly the same
// merge engine as Build. The caller owns instance validation and the
// registry's lifecycle; the returned root is not embedded and may be
// Deferred. Stats.GroupUnions excludes the registry's construction-time
// prescribed-offset unions (aggregate them once via Registry.PreUnions).
func BuildSubtree(in *ctree.Instance, sinkIDs []int, opt Options, reg *Registry) (*Subtree, error) {
	if err := normalizeOptions(in, &opt); err != nil {
		return nil, err
	}
	if reg.Groups() != in.NumGroups {
		return nil, fmt.Errorf("core: registry over %d groups for instance with %d", reg.Groups(), in.NumGroups)
	}
	if sinkIDs != nil && len(sinkIDs) == 0 {
		return nil, fmt.Errorf("core: BuildSubtree over an empty sink set")
	}
	for _, id := range sinkIDs {
		if id < 0 || id >= len(in.Sinks) {
			return nil, fmt.Errorf("core: BuildSubtree sink id %d out of range [0, %d)", id, len(in.Sinks))
		}
	}
	b := &builder{opt: opt, in: in, uf: &reg.uf, done: doneOf(opt.Ctx)}
	b.initScratch()
	b.initSinkNodes(sinkIDs)
	b.route()
	if b.err != nil {
		return nil, b.err
	}
	RecordStatsMetrics(opt.Trace, b.stats)
	return &Subtree{Root: b.root, Stats: b.stats, Trace: opt.Trace}, nil
}

// MergeRoots merges pre-built subtree roots into one tree under the full
// constraint machinery — shared-group windows, the registry leash, joint
// resolution of deferred roots, and wire sneaking — exactly as intra-build
// merges are performed, and resolves any final deferred split toward the
// instance source. This is the skew-aware generalization of the stitch
// baseline's unconstrained root merging (internal/stitch): where the
// baseline connects roots at bare distance, MergeRoots keeps enforcing the
// intra-group bound across the stitched seams. The returned root is not
// embedded; the roots' subtrees are adopted (and deferred roots committed)
// in place.
func MergeRoots(in *ctree.Instance, roots []*ctree.Node, opt Options, reg *Registry) (*Subtree, error) {
	if err := normalizeOptions(in, &opt); err != nil {
		return nil, err
	}
	if reg.Groups() != in.NumGroups {
		return nil, fmt.Errorf("core: registry over %d groups for instance with %d", reg.Groups(), in.NumGroups)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("core: MergeRoots over no roots")
	}
	b := &builder{opt: opt, in: in, uf: &reg.uf, done: doneOf(opt.Ctx)}
	b.initScratch()
	b.initRootNodes(roots)
	b.route()
	if b.err != nil {
		return nil, b.err
	}
	b.finishRoot()
	RecordStatsMetrics(opt.Trace, b.stats)
	return &Subtree{Root: b.root, Stats: b.stats, Trace: opt.Trace}, nil
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
	opt.GlobalBound = 0
	return Build(in, opt)
}

// EXTBST routes ignoring groups under a global skew bound — the thesis's
// extended greedy-BST baseline ("simply set bounded skew range as 10 ps and
// run the EXT-BST algorithm").
func EXTBST(in *ctree.Instance, boundPs float64, opt Options) (*Result, error) {
	opt.SingleGroup = true
	opt.GlobalBound = boundPs
	return Build(in, opt)
}

// groupUF is a weighted union-find over sink groups recording, softly, the
// first-committed delay offset of every related group pair. The normalized
// delay of group g is its subtree delay minus its cumulative offset, so two
// related groups compare on a common scale.
type groupUF struct {
	parent []int
	off    []float64
	// journal, when non-nil, records every union instead of only applying
	// it: parallel merge workers operate on private clones and their
	// recorded unions are replayed onto the shared registry at the serial
	// commit (see runBatch).
	journal *[]unionRec
}

// unionRec is one recorded union for deferred replay.
type unionRec struct {
	ra, rb int
	rel    float64
}

func newGroupUF(n int) *groupUF {
	u := &groupUF{parent: make([]int, n), off: make([]float64, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// cloneInto copies u's state into dst (reusing dst's backing arrays),
// giving a parallel merge worker a private view it may mutate.
func (u *groupUF) cloneInto(dst *groupUF) {
	dst.parent = append(dst.parent[:0], u.parent...)
	dst.off = append(dst.off[:0], u.off...)
}

// find returns g's union root and the cumulative offset of g relative to it.
// It deliberately does NOT compress paths: find is called from the merge-key
// closure, which the order queue's batch pairing evaluates from concurrent
// goroutines, so it must not mutate. Chains stay short (one link per union,
// and group counts are small), so the walk is cheap.
func (u *groupUF) find(g int) (root int, off float64) {
	for u.parent[g] != g {
		off += u.off[g]
		g = u.parent[g]
	}
	return g, off
}

// union merges the root rb into ra such that a group with normalized delay
// nb under rb gets normalized delay nb − rel under ra.
func (u *groupUF) union(ra, rb int, rel float64) {
	u.parent[rb] = ra
	u.off[rb] = rel
	if u.journal != nil {
		*u.journal = append(*u.journal, unionRec{ra: ra, rb: rb, rel: rel})
	}
}

// sneakScratch is a reusable buffer for one sneak plan.
type sneakScratch struct {
	handles []handle
	gammas  []float64
	plan    sneak
}

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

type builder struct {
	opt   Options
	in    *ctree.Instance
	uf    *groupUF
	nodes []*ctree.Node
	root  *ctree.Node
	stats Stats

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
	plan             splitPlan               // the current merge's constraint layout
	normA, normB     []rctree.Interval       // forConstraints' normalized sets (one per union-root slot)
	splitsA, splitsB [jointSamples]splitEval // jointResolve's per-side evaluations
	sneakA, sneakB   sneakScratch            // sneak plan buffers
	unionBuf         []int                   // UnionGroups staging (one merge)
	delays           delaySlab               // committed delay-set storage

	// Parallel batch execution state (main builder only).
	workers []mergeWorker
	tasks   []mergeTask
	rootsIn []bool // scratch: union roots written by scheduled batch writers

	// Observability state (main builder only; all of it is dead weight when
	// opt.Trace and opt.SneakProbe are nil — no field is touched then).
	// wave* accumulate the parallel merge wave's per-round idle accounting
	// for export as MetricWave* at the end of route; busyNS is the per-round
	// per-worker busy-time scratch; probeVals/probeSeq back the sneak probe.
	waveRounds   int
	waveBatchMax int
	waveSlotNS   int64
	waveIdleNS   int64
	busyNS       []int64
	probeVals    []float64
	probeSeq     int
}

// mergeTask is one merge of a round's disjoint batch.
type mergeTask struct {
	na, nb *ctree.Node
	out    *ctree.Node // preassigned arena slot
	wave   bool        // executable concurrently against the pre-batch registry
	writer bool        // may register group unions (needs a private registry)
	stats  Stats       // worker's stat delta (wave tasks)
	unions []unionRec  // worker's recorded unions (wave writer tasks)
}

// mergeWorker is the per-goroutine execution state of parallel batches: a
// builder clone with private scratch plus a reusable registry snapshot.
type mergeWorker struct {
	wb builder
	uf groupUF // private clone target for writer tasks
}

// boundOf returns the intra-group skew bound used for routing.
func (b *builder) boundOf() float64 {
	if b.opt.SingleGroup {
		return b.opt.GlobalBound
	}
	return b.opt.IntraSkewBound
}

// interBound returns the inter-group spread window, +Inf when disabled.
// In SingleGroup mode the single group's bound already covers everything.
func (b *builder) interBound() float64 {
	if b.opt.SingleGroup {
		return math.Inf(1)
	}
	if b.opt.InterSkewBound < 0 {
		return math.Inf(1)
	}
	return b.opt.InterSkewBound
}

// initScratch sizes the builder's reusable merge-body buffers.
func (b *builder) initScratch() {
	b.plan.initScratch(b.in.NumGroups, len(b.opt.PairConstraints))
}

// constraint identifies one hard window of a merge.
type constraint struct {
	// raw is true for an intra-group constraint on a shared raw group;
	// false for a consistency leash on a shared union root.
	raw bool
	// id is the raw group or the union root.
	id int
}

// forConstraints invokes f for every hard constraint of the merge b.plan
// lays out, between operands with the raw delay sets da and db:
//
//   - one window per shared raw group, at the intra-group bound B — the
//     thesis's skew constraints proper; and
//   - one window per shared union root on the registry-normalized scale, at
//     the leash bound B + W: the committed inter-group offsets of related
//     groups may float within the inter-group window W of their registered
//     values (the thesis's "bounded range" implied by its merging regions),
//     which keeps independently built subtrees consistent without freezing
//     the offsets outright.
//
// va and vb, when non-nil, hold da and db already on the normalized scale
// (the split search normalizes each candidate split once and pairs it with
// many partners); nil normalizes into the builder's scratch when the
// union-root pass runs.
func (b *builder) forConstraints(da, db rctree.DelaySet, va, vb []rctree.Interval,
	f func(c constraint, ia, ib rctree.Interval, bound float64)) {
	p := &b.plan
	bd := b.boundOf()
	for _, s := range p.raw {
		f(constraint{raw: true, id: s.id}, da.Ivs[s.a], db.Ivs[s.b], bd)
	}
	// Explicit inter-group pair constraints: delay(J) − delay(I) ∈ [lo, hi],
	// enforceable here when the two groups sit on opposite sides. With I on
	// side a and J on side b the post-merge difference is
	// (db[J]+wb) − (da[I]+wa) = (db[J] − da[I]) − X, giving the X window
	// [db[J].Hi − da[I].Lo − hi, db[J].Lo − da[I].Hi − lo]; mirrored when J
	// is on side a. Encoded through f by shifting the J interval: the window
	// formula f applies to (ia, ib, bound) is
	// [ib.Hi − ia.Lo − bound, ib.Lo − ia.Hi + bound], so passing
	// ib' = db[J] − (lo+hi)/2 and bound (hi−lo)/2 reproduces it exactly.
	for _, pc := range p.pcs {
		ia, ib := da.Ivs[pc.a], db.Ivs[pc.b]
		if pc.jOnB {
			ib = ib.Shift(-pc.mid)
		} else {
			ia = ia.Shift(-pc.mid)
		}
		f(constraint{raw: false, id: -1}, ia, ib, pc.half)
	}

	w := b.interBound()
	if math.IsInf(w, 1) {
		return
	}
	if va == nil {
		b.normA, b.normB = p.a.normalize(b.normA, da), p.b.normalize(b.normB, db)
		va, vb = b.normA, b.normB
	}
	for _, r := range p.roots {
		f(constraint{raw: false, id: r.id}, va[r.a], vb[r.b], bd+w)
	}
}

// slot returns the preassigned arena slot of node index id.
func (b *builder) slot(id int) *ctree.Node { return &b.arena[id-b.arenaOff] }

// initSinkNodes allocates the node arena and initializes the leaf nodes for
// the given sink IDs (nil = every sink of the instance, in ID order). Leaves
// keep their original Sink pointers and IDs, so a sub-instance build routes
// a subset in place — no instance cloning or sink transplanting.
func (b *builder) initSinkNodes(sinkIDs []int) {
	n := len(b.in.Sinks)
	if sinkIDs != nil {
		n = len(sinkIDs)
	}
	b.arena = make([]ctree.Node, 2*n-1)
	b.arenaOff = 0
	b.nodes = make([]*ctree.Node, 0, 2*n-1)
	// Leaves of one group are identical in Groups and Delay ({g: [0,0]}),
	// and node Group slices / Delay sets are never mutated in place (all
	// paths build replacements), so the leaves share interned instances —
	// the interning table below holds one Groups slice and one DelaySet per
	// group, and on large single-group (ZST) runs this removes three
	// allocations per sink.
	groupsIntern := make([][]int, b.in.NumGroups)
	delayIntern := make([]rctree.DelaySet, b.in.NumGroups)
	leafGroup := func(s *ctree.Sink) int {
		if b.opt.SingleGroup {
			return 0
		}
		return s.Group
	}
	for i := 0; i < n; i++ {
		id := i
		if sinkIDs != nil {
			id = sinkIDs[i]
		}
		s := &b.in.Sinks[id]
		g := leafGroup(s)
		if groupsIntern[g] == nil {
			groupsIntern[g] = []int{g}
			delayIntern[g] = rctree.PointDelaySet(g, rctree.PointInterval(0))
		}
		leaf := &b.arena[i]
		*leaf = ctree.Node{
			ID:     s.ID,
			Sink:   s,
			Region: geom.RectFromPoint(s.Loc),
			Cap:    s.CapFF,
			Groups: groupsIntern[g],
			Delay:  delayIntern[g],
		}
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
}

// route runs the merging loop over the builder's initial nodes (set by
// initSinkNodes or initRootNodes) down to a single root, which may be left
// Deferred — finishRoot commits it toward the source when the tree is final.
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
		if !na.Deferred && !nb.Deferred {
			// Committed regions are rectangles; their octagon lift has
			// redundant diagonal bounds (each diagonal gap is at most the
			// larger axis gap), so DistOO reduces to the much cheaper
			// rectangle distance. This is the hot call of every pairing
			// scan, and in zero-skew runs no node is ever deferred.
			return geom.DistRR(na.Region, nb.Region)
		}
		return geom.DistOO(na.ActiveRegion(), nb.ActiveRegion())
	}
	ocfg := b.opt.Order
	userKey := ocfg.Key != nil
	if ocfg.Key == nil {
		bias := b.opt.DelayTargetBias
		ocfg.Key = func(i, j int, d float64) float64 {
			k := b.mergeKey(i, j, d)
			if bias > 0 {
				di := b.overallOf(b.nodes[i])
				dj := b.overallOf(b.nodes[j])
				k -= bias * ((di.Lo+di.Hi)/2 + (dj.Lo+dj.Hi)/2)
			}
			return k
		}
	}
	if ocfg.Pairer == nil && b.useGridPairer(n, userKey) {
		// Index nodes by the u/v bounds of their active regions: the bound
		// distance under-estimates the true octagon distance, keeping the
		// grid's pruning sound, while dist/key stay exact. mergeKey only
		// ever adds non-negative snaking excess to the distance (the
		// delay-target bias, which can subtract, is excluded above), so
		// key ≥ dist holds and grid pairing is exact.
		box := func(id int) geom.Rect { return b.nodes[id].ActiveRegion().Bounds() }
		boxes := make([]geom.Rect, n)
		for i := range boxes {
			boxes[i] = box(i)
		}
		ocfg.Pairer = spatial.NewGridPairerFor(boxes, box, dist, ocfg.Key)
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
	if !b.root.Deferred {
		return
	}
	src := geom.OctFromUV(geom.ToUV(b.in.Source))
	q, _ := geom.ClosestPoints(b.root.DefRegion, src)
	b.resolve(b.root, geom.DistRP(b.root.Left.Region, q))
}

// minParallelBatch is the batch size below which runBatch stays serial: the
// scheduling pass and goroutine fan-out cost more than a handful of merge
// bodies.
const minParallelBatch = 8

// mergeWorkerCount resolves Options.MergeWorkers.
func (b *builder) mergeWorkerCount() int {
	if b.opt.MergeWorkers > 0 {
		return b.opt.MergeWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// runBatch executes one round's disjoint merge batch and registers the
// results with the queue in batch order. Small batches (or MergeWorkers=1)
// run serially; larger ones fan the merge bodies out across workers and
// commit serially, which is bitwise-identical to the serial execution:
//
//   - The pairs of a batch share no subtree, so merge bodies only interact
//     through the group-offset registry (builder.uf).
//   - A scheduling pass walks the batch in order tracking, conservatively,
//     the set of union roots each merge may commit (a merge spanning ≥ 2
//     distinct roots may union them). A merge whose root set intersects a
//     prior writer's is deferred to the serial commit phase, where it runs
//     against the live registry exactly as the serial order would.
//   - Every other merge joins the parallel wave. Non-writers read the
//     shared registry (frozen during the wave); writers run on a private
//     clone, journaling their unions. Since no prior batch writer touched
//     their roots, the clone view equals the serial view over everything
//     the merge can read.
//   - The commit phase walks the batch in order: wave results adopt their
//     stat deltas and replay their journaled unions; deferred merges
//     execute serially in place. Node ids, queue registration and spatial
//     re-indexing all happen here, in batch order.
//
// Single-group runs (ZST, EXT-BST) and prescribed-offset runs have one
// union root for every merge, so the whole batch always waves.
func (b *builder) runBatch(q *order.Queue, batch []order.Pair) {
	base := len(b.nodes)
	if workers := b.mergeWorkerCount(); workers > 1 && len(batch) >= minParallelBatch {
		b.mergeBatchParallel(batch, base, workers)
	} else {
		for k, p := range batch {
			b.merge(b.nodes[p.I], b.nodes[p.J], b.slot(base+k))
		}
	}
	for k := range batch {
		c := b.slot(base + k)
		c.ID = base + k
		b.nodes = append(b.nodes, c)
		q.Merged(c.ID)
	}
}

// mergeBatchParallel is runBatch's parallel wave + serial commit (see the
// runBatch comment for the invariants). When traced it times the round's
// three sections — serial scheduling pass, parallel wave, serial commit —
// and accumulates the wave's idle accounting: over a round with W workers,
// slot time is (sched + wave + commit)·W and idle time is
// (sched + commit)·(W−1) plus the wave's internal imbalance (wave·W − Σbusy),
// so idle/slot across rounds is the fraction of worker capacity spent
// waiting on the serial sections or on uneven chunks.
func (b *builder) mergeBatchParallel(batch []order.Pair, base, workers int) {
	tr := b.opt.Trace
	var rgn obs.Region
	var tStart time.Time
	if tr != nil {
		rgn = tr.Begin("wave")
		tStart = obs.Now()
		if len(b.busyNS) < workers {
			b.busyNS = make([]int64, workers)
		}
		for i := range b.busyNS {
			b.busyNS[i] = 0
		}
	}
	// Scheduling pass: conservative registry-conflict analysis in batch
	// order, against the pre-batch registry (b.uf is not mutated here).
	multiRoot := !b.opt.SingleGroup && b.in.NumGroups > 1 && b.opt.GroupOffsets == nil
	if b.rootsIn == nil && multiRoot {
		b.rootsIn = make([]bool, b.in.NumGroups)
	}
	tasks := b.tasks[:0]
	for k, p := range batch {
		t := mergeTask{na: b.nodes[p.I], nb: b.nodes[p.J], out: b.slot(base + k), wave: true}
		if multiRoot {
			t.wave, t.writer = b.scheduleTask(t.na, t.nb)
		}
		tasks = append(tasks, t)
	}
	b.tasks = tasks
	if multiRoot {
		// Reset the written-roots scratch for the next batch.
		for i := range b.rootsIn {
			b.rootsIn[i] = false
		}
	}

	// Parallel wave over contiguous chunks; chunk w handles tasks[lo:hi].
	if b.workers == nil {
		b.workers = make([]mergeWorker, 0, workers)
	}
	for len(b.workers) < workers {
		w := mergeWorker{wb: builder{opt: b.opt, in: b.in}}
		// Workers run untraced: a Trace/Probe is single-goroutine, and the
		// coordinating builder owns the round's accounting.
		w.wb.opt.Trace = nil
		w.wb.opt.SneakProbe = nil
		w.wb.initScratch()
		b.workers = append(b.workers, w)
	}
	var tSched time.Time
	if tr != nil {
		tSched = obs.Now()
	}
	var next atomic.Int32
	order.ParallelChunksN(len(tasks), workers, 1, func(lo, hi int) {
		// ParallelChunksN launches at most `workers` chunks; the counter
		// keys each chunk to a private worker without assuming launch order.
		wi := next.Add(1) - 1
		w := &b.workers[wi]
		var tBusy time.Time
		if tr != nil {
			tBusy = obs.Now()
		}
		for k := lo; k < hi; k++ {
			t := &tasks[k]
			if !t.wave {
				continue
			}
			w.wb.stats = Stats{}
			if t.writer {
				b.uf.cloneInto(&w.uf)
				t.unions = t.unions[:0]
				w.uf.journal = &t.unions
				w.wb.uf = &w.uf
			} else {
				w.wb.uf = b.uf // read-only during the wave
			}
			w.wb.merge(t.na, t.nb, t.out)
			t.stats = w.wb.stats
		}
		if tr != nil {
			b.busyNS[wi] = obs.Since(tBusy).Nanoseconds()
		}
	})
	var tWave time.Time
	if tr != nil {
		tWave = obs.Now()
	}

	// Serial commit in batch order.
	for k := range tasks {
		t := &tasks[k]
		if t.wave {
			b.stats.add(t.stats)
			for _, u := range t.unions {
				// Replay raw: the recorded roots are untouched by every
				// other merge of this batch (scheduling invariant).
				b.uf.parent[u.rb] = u.ra
				b.uf.off[u.rb] = u.rel
			}
		} else {
			b.merge(t.na, t.nb, t.out)
		}
	}

	if tr != nil {
		w := int64(workers)
		sched := tSched.Sub(tStart).Nanoseconds()
		wave := tWave.Sub(tSched).Nanoseconds()
		commit := obs.Since(tWave).Nanoseconds()
		var busy int64
		for _, v := range b.busyNS[:workers] {
			busy += v
		}
		idle := (sched+commit)*(w-1) + (wave*w - busy)
		if idle < 0 {
			idle = 0 // clock skew between the chunk timers and the wave timer
		}
		slot := (sched + wave + commit) * w
		b.waveRounds++
		b.waveSlotNS += slot
		b.waveIdleNS += idle
		if len(batch) > b.waveBatchMax {
			b.waveBatchMax = len(batch)
		}
		idleFrac := 0.0
		if slot > 0 {
			idleFrac = float64(idle) / float64(slot)
		}
		rgn.Attr("batch", float64(len(batch))).
			Attr("workers", float64(workers)).
			Attr("idle_frac", idleFrac)
		rgn.End()
	}
}

// appendDistinctRoots appends the distinct union roots of the given groups
// to dst, linearly deduplicating (group counts are small, and a stack
// buffer beats a map on the hot paths that call this).
func (b *builder) appendDistinctRoots(dst []int, gs []int) []int {
	for _, g := range gs {
		r, _ := b.uf.find(g)
		dup := false
		for _, have := range dst {
			if have == r {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, r)
		}
	}
	return dst
}

// scheduleTask classifies one batch merge against the written-roots scratch:
// reports whether it can run in the parallel wave and whether it may write
// the registry. Must be called in batch order.
func (b *builder) scheduleTask(na, nb *ctree.Node) (wave, writer bool) {
	// Collect the distinct union roots of both subtrees' groups.
	var roots [16]int
	rs := b.appendDistinctRoots(b.appendDistinctRoots(roots[:0], na.Groups), nb.Groups)
	writer = len(rs) >= 2
	conflict := false
	for _, r := range rs {
		if b.rootsIn[r] {
			conflict = true
			break
		}
	}
	if conflict || writer {
		// Tail tasks are treated as writers too: they run against the live
		// registry and may commit unions among these roots.
		for _, r := range rs {
			b.rootsIn[r] = true
		}
	}
	return !conflict, writer
}

// resolve pins a deferred node and registers the group-offset commitments it
// makes with the soft registry.
func (b *builder) resolve(n *ctree.Node, e float64) {
	if !n.Deferred {
		return
	}
	n.Resolve(b.opt.Model, e)
	b.registerOffsets(n)
}

// registerOffsets records, for a just-committed node spanning several
// groups, the first-seen relative offsets between previously unrelated
// groups (thesis Ch. V.E.1: the involved groups form a new merged group).
func (b *builder) registerOffsets(n *ctree.Node) {
	var haveFirst bool
	var firstRoot int
	var firstNorm float64
	for i := 0; i < n.Delay.Len(); i++ { // ascending group: keeps runs deterministic
		g, iv := n.Delay.At(i)
		r, off := b.uf.find(g)
		norm := (iv.Lo+iv.Hi)/2 - off
		if !haveFirst {
			haveFirst, firstRoot, firstNorm = true, r, norm
			continue
		}
		if r == firstRoot {
			continue
		}
		b.uf.union(firstRoot, r, norm-firstNorm)
		b.stats.GroupUnions++
	}
}

// overallOf returns the node's overall delay interval; for deferred nodes it
// evaluates the midpoint split without committing it.
func (b *builder) overallOf(n *ctree.Node) rctree.Interval {
	if !n.Deferred {
		return n.OverallDelay()
	}
	m := b.opt.Model
	e := mid(n.SplitRange())
	l := n.Left.OverallDelay().Shift(m.WireDelay(e, n.Left.Cap))
	r := n.Right.OverallDelay().Shift(m.WireDelay(n.DefD-e, n.Right.Cap))
	return rctree.Cover(l, r)
}

// mergeKey estimates the wirelength a merge of nodes i and j would commit:
// their region distance plus, when they share a group, the snaking excess
// implied by their current delay imbalance. Using this as the greedy merging
// cost (instead of bare distance) reproduces greedy-DME's minimum-cost order
// and prevents delay-imbalanced pairings that fat deferred regions would
// otherwise chain together.
func (b *builder) mergeKey(i, j int, d float64) float64 {
	// In exact zero-skew single-group mode no region is ever fat, chaining
	// cannot occur, and the classic distance order is empirically better.
	if b.opt.SingleGroup && b.opt.GlobalBound == 0 {
		return d
	}
	na, nb := b.nodes[i], b.nodes[j]
	var bound float64
	switch {
	case ctree.SharesGroup(na.Groups, nb.Groups):
		bound = b.boundOf()
	case b.relatedRoots(na, nb):
		bound = b.boundOf() + b.interBound()
	default:
		return d
	}
	if math.IsInf(bound, 1) {
		return d
	}
	m := b.opt.Model
	ia := b.overallOf(na)
	ib := b.overallOf(nb)
	xLo := ib.Hi - ia.Lo - bound
	xHi := ib.Lo - ia.Hi + bound
	x0 := -m.WireDelay(d, nb.Cap)
	xd := m.WireDelay(d, na.Cap)
	switch {
	case xHi < x0:
		return d + max(max(m.ExtendForDelay(nb.Cap, -xHi), d)-d, 0)
	case xLo > xd:
		return d + max(max(m.ExtendForDelay(na.Cap, xLo), d)-d, 0)
	default:
		return d
	}
}

// merge performs one AST-DME merge of subtrees a and b (thesis Fig. 6,
// steps 4–7), constructing the new subtree root in c (a preassigned arena
// slot; c.ID is set by the caller at commit).
func (b *builder) merge(na, nb *ctree.Node, c *ctree.Node) {
	m := b.opt.Model
	shared := ctree.SharesGroup(na.Groups, nb.Groups)
	b.stats.Merges++
	switch {
	case !shared:
		b.stats.CrossGroup++
	case len(na.Groups) == 1 && len(nb.Groups) == 1:
		b.stats.SameGroup++
	default:
		b.stats.Shared++
	}

	// Pin any deferred splits. With constraints between the pair the splits
	// are chosen jointly so the windows intersect at the least committed
	// cost; otherwise the closest approach decides.
	if na.Deferred || nb.Deferred {
		if shared || (!math.IsInf(b.interBound(), 1) && b.relatedRoots(na, nb)) {
			b.jointResolve(na, nb)
		} else {
			qa, qb := geom.ClosestPoints(na.ActiveRegion(), nb.ActiveRegion())
			if na.Deferred {
				b.resolve(na, geom.DistRP(na.Left.Region, qa))
			}
			if nb.Deferred {
				b.resolve(nb, geom.DistRP(nb.Left.Region, qb))
			}
		}
	}

	// Intersect the hard windows (shared raw groups + inter-group window),
	// wire-sneaking when they conflict (thesis Fig. 5 / Eqs. 5.1–5.3).
	xLo, xHi, compromised := b.intersectWindows(na, nb)

	d := geom.DistRR(na.Region, nb.Region)
	*c = ctree.Node{
		Left: na, Right: nb,
		Cap:    na.Cap + nb.Cap,
		Groups: b.unionGroups(na, nb),
	}

	eLo, eHi, snaked := b.splitWindow(na, nb, d, xLo, xHi, compromised)
	if snaked {
		b.stats.MergeSnakes++
	}
	const widthEps = 1e-9
	if !snaked && eHi-eLo > widthEps*(1+d) {
		// Keep the whole feasible sub-region of the SDR; the split commits
		// when this node is next merged (or at the tree root).
		c.Deferred = true
		c.DefD = d
		c.DefELo, c.DefEHi = eLo, eHi
		c.DefRegion = geom.SDR(na.Region, nb.Region, d, eLo, eHi)
		c.Cap += m.WireCap(d)
		b.stats.Deferred++
	} else {
		ea, eb := eLo, d-eLo
		if snaked {
			// splitWindow returns committed lengths through eLo/eHi when
			// snaking: eLo is ea, eHi is eb.
			ea, eb = eLo, eHi
		}
		c.EdgeL, c.EdgeR = ea, eb
		c.Region = geom.MergeLocus(na.Region, nb.Region, ea, eb)
		c.Cap += m.WireCap(ea) + m.WireCap(eb)
		wa := m.WireDelay(ea, na.Cap)
		wb := m.WireDelay(eb, nb.Cap)
		ds := b.delays.alloc(na.Delay.Len() + nb.Delay.Len())
		rctree.MergeDelaysInto(&ds, na.Delay, wa, nb.Delay, wb)
		c.Delay = b.delays.reclaim(ds)
		b.registerOffsets(c)
	}
}

func mid(lo, hi float64) float64 { return (lo + hi) / 2 }

// unionGroups returns the sorted union of the children's group sets,
// sharing the child's slice when one side covers the other (always, in
// single-group runs) — group slices are never mutated in place, so sharing
// is safe and saves an allocation on the vast majority of merges.
func (b *builder) unionGroups(na, nb *ctree.Node) []int {
	b.unionBuf = ctree.AppendUnionGroups(b.unionBuf[:0], na.Groups, nb.Groups)
	u := b.unionBuf
	switch {
	case len(u) == len(na.Groups):
		return na.Groups // union ⊇ a and same length ⇒ equal
	case len(u) == len(nb.Groups):
		return nb.Groups
	default:
		return append([]int(nil), u...)
	}
}

// splitEval is one merge operand evaluated at a candidate split e: the
// per-group delays it would commit, those delays on the registry-normalized
// scale (one interval per union-root slot of the operand's plan side), and
// its placement rectangle. Each depends on that operand's split alone, so
// the split search evaluates every candidate once and pairs it with many
// partners. The buffers are scratch owned by the evaluation, grown on first
// use and reused across merges.
type splitEval struct {
	e     float64
	delay rctree.DelaySet
	norm  []rctree.Interval
	buf   rctree.DelaySet // DelayAtBuf output backing delay
	rect  geom.Rect
}

// evalSplit evaluates node n, laid out as plan side ps, at split e into s.
func (b *builder) evalSplit(n *ctree.Node, e float64, s *splitEval, ps *planSide) {
	s.e = e
	s.delay = n.DelayAtBuf(b.opt.Model, e, &s.buf)
	s.norm = ps.normalize(s.norm, s.delay)
	s.rect = n.RectAt(e)
}

// splitCost scores the candidate splits sa of na and sb of nb against the
// upcoming merge. It returns the infeasibility gap (ps) of the intersected
// hard-window system (0 when the windows intersect), the cost the merge
// would commit — the candidate distance, plus any snaking excess needed to
// reach the window, minus a small preference for wide residual windows —
// and the misalignment of the shared union roots' required shifts.
func (b *builder) splitCost(na, nb *ctree.Node, sa, sb *splitEval) (gap, cost, misalign float64) {
	m := b.opt.Model
	xLo, xHi := math.Inf(-1), math.Inf(1)
	b.forConstraints(sa.delay, sb.delay, sa.norm, sb.norm, func(_ constraint, ia, ib rctree.Interval, bd float64) {
		if lo := ib.Hi - ia.Lo - bd; lo > xLo {
			xLo = lo
		}
		if hi := ib.Lo - ia.Hi + bd; hi < xHi {
			xHi = hi
		}
	})
	gap = max(xLo-xHi, 0)
	d := geom.DistRR(sa.rect, sb.rect)
	cost = d

	// Tertiary criterion: the merge applies a single shift X to all shared
	// union roots, so if the per-root required shifts disagree, whatever X
	// is chosen commits offsets away from their registered values. The
	// spread of the required shifts measures that inevitable drift; small
	// spread keeps the global offset system consistent and cheap.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range b.plan.roots {
		ia, ib := sa.norm[r.a], sb.norm[r.b]
		s := (ib.Lo+ib.Hi)/2 - (ia.Lo+ia.Hi)/2
		lo = min(lo, s)
		hi = max(hi, s)
	}
	if hi > lo {
		misalign = hi - lo
	}

	// Snaking excess: wire beyond d needed to shift X into the hard window.
	capA, capB := na.Cap, nb.Cap
	x0 := -m.WireDelay(d, capB)
	xd := m.WireDelay(d, capA)
	switch {
	case xHi < x0:
		cost += max(m.ExtendForDelay(capB, -xHi), d) - d
	case xLo > xd:
		cost += max(m.ExtendForDelay(capA, xLo), d) - d
	default:
		// Prefer keeping a wide residual window: subtract the overlap width
		// mapped to split units, weighted well below one wire unit so it
		// only breaks ties among near-equal costs.
		overlap := min(xHi, xd) - max(xLo, x0)
		slope := m.WireDelay(d, capA) + m.WireDelay(d, capB)
		if d > 0 && slope > 0 && !math.IsInf(overlap, 1) {
			cost -= 0.01 * d * min(overlap/slope, 1)
		}
	}
	return gap, cost, misalign
}

// relatedRoots reports whether the registry relates any group of na to any
// group of nb. It is called from the merge key, i.e. from concurrent pairing
// goroutines, so it only reads the registry.
func (b *builder) relatedRoots(na, nb *ctree.Node) bool {
	var buf [16]int
	roots := b.appendDistinctRoots(buf[:0], na.Groups)
	for _, g := range nb.Groups {
		r, _ := b.uf.find(g)
		for _, have := range roots {
			if have == r {
				return true
			}
		}
	}
	return false
}

// jointSamples is the per-axis sample count of jointResolve's coarse grid.
const jointSamples = 13

// jointResolve pins the deferred splits of na and nb so the hard windows of
// the upcoming merge intersect if at all possible, minimizing
// (infeasibility gap, committed cost) lexicographically: a coarse grid
// search followed by alternating golden-section polish per axis. The
// constraint layout is built once per search (b.plan), and each side is
// evaluated once per split (b.splitsA/b.splitsB): the coarse grid pairs
// jointSamples evaluations per axis, and a golden pass evaluates its fixed
// side once.
func (b *builder) jointResolve(na, nb *ctree.Node) {
	b.layout(na, nb, true)
	la, lb := &b.plan.a, &b.plan.b
	aLo, aHi := na.SplitRange()
	bLo, bHi := nb.SplitRange()
	evA, evB := &b.splitsA, &b.splitsB
	b.evalSplit(na, mid(aLo, aHi), &evA[0], la)
	b.evalSplit(nb, mid(bLo, bHi), &evB[0], lb)
	bestA, bestB := evA[0].e, evB[0].e
	bestGap, bestCost, bestMis := b.splitCost(na, nb, &evA[0], &evB[0])

	consider := func(ea, eb *splitEval) {
		gap, cost, mis := b.splitCost(na, nb, ea, eb)
		epsG := 1e-9 * (1 + bestGap)
		epsC := 1e-6 * (1 + math.Abs(bestCost))
		switch {
		case gap < bestGap-epsG,
			gap <= bestGap+epsG && cost < bestCost-epsC,
			gap <= bestGap+epsG && cost <= bestCost+epsC && mis < bestMis:
			bestGap, bestCost, bestMis = gap, cost, mis
			bestA, bestB = ea.e, eb.e
		}
	}

	// samples evaluates n at the coarse samples of [lo, hi] into dst and
	// returns the filled prefix.
	samples := func(n *ctree.Node, lo, hi float64, dst *[jointSamples]splitEval, ps *planSide) []splitEval {
		if hi-lo <= 0 {
			b.evalSplit(n, lo, &dst[0], ps)
			return dst[:1]
		}
		for i := range dst {
			b.evalSplit(n, lo+(hi-lo)*float64(i)/float64(jointSamples-1), &dst[i], ps)
		}
		return dst[:]
	}
	gridA := samples(na, aLo, aHi, evA, la)
	gridB := samples(nb, bLo, bHi, evB, lb)
	for i := range gridA {
		for j := range gridB {
			consider(&gridA[i], &gridB[j])
		}
	}

	// Alternating golden-section polish per axis, on the same lexicographic
	// (gap, cost, misalignment) criterion.
	golden := func(lo, hi float64, f func(float64) (float64, float64, float64)) float64 {
		if hi-lo <= 0 {
			return lo
		}
		const phi = 0.6180339887498949
		x1 := hi - phi*(hi-lo)
		x2 := lo + phi*(hi-lo)
		f1g, f1c, f1m := f(x1)
		f2g, f2c, f2m := f(x2)
		better := func(g1, c1, m1, g2, c2, m2 float64) bool {
			if g1 != g2 {
				return g1 < g2
			}
			if c1 != c2 {
				return c1 < c2
			}
			return m1 < m2
		}
		for it := 0; it < 40 && hi-lo > 1e-9*(1+hi); it++ {
			if better(f1g, f1c, f1m, f2g, f2c, f2m) {
				hi, x2, f2g, f2c, f2m = x2, x1, f1g, f1c, f1m
				x1 = hi - phi*(hi-lo)
				f1g, f1c, f1m = f(x1)
			} else {
				lo, x1, f1g, f1c, f1m = x1, x2, f2g, f2c, f2m
				x2 = lo + phi*(hi-lo)
				f2g, f2c, f2m = f(x2)
			}
		}
		return mid(lo, hi)
	}
	// A golden pass is a pure function of its fixed side's split: the search
	// mutates no node and no registry. So when an axis' fixed split has not
	// moved since that axis' previous pass (bitwise), the pass's result is
	// reused. It is still evaluated and considered, so the sequence of
	// accept/reject decisions is the same as running the pass again.
	type pass struct {
		run   bool
		fixed uint64 // math.Float64bits of the fixed split
		e     float64
	}
	var passA, passB pass
	for round := 0; round < 2; round++ {
		if na.Deferred {
			fixed, vary := &evB[0], &evA[0]
			b.evalSplit(nb, bestB, fixed, lb)
			if bits := math.Float64bits(bestB); !passA.run || passA.fixed != bits {
				passA = pass{run: true, fixed: bits, e: golden(aLo, aHi, func(e float64) (float64, float64, float64) {
					b.evalSplit(na, e, vary, la)
					return b.splitCost(na, nb, vary, fixed)
				})}
			}
			b.evalSplit(na, passA.e, vary, la)
			consider(vary, fixed)
		}
		if nb.Deferred {
			fixed, vary := &evA[0], &evB[0]
			b.evalSplit(na, bestA, fixed, la)
			if bits := math.Float64bits(bestA); !passB.run || passB.fixed != bits {
				passB = pass{run: true, fixed: bits, e: golden(bLo, bHi, func(e float64) (float64, float64, float64) {
					b.evalSplit(nb, e, vary, lb)
					return b.splitCost(na, nb, fixed, vary)
				})}
			}
			b.evalSplit(nb, passB.e, vary, lb)
			consider(fixed, vary)
		}
	}

	b.resolve(na, bestA)
	b.resolve(nb, bestB)
}

// handle is a snaking site: a tree edge whose subtree is pure in the target
// group, together with the resistance of the path from the routing subtree's
// root down to the edge (needed to solve the elongation exactly).
type handle struct {
	ref ctree.EdgeRef
	rUp float64
}

// appendCoverHandles appends to dst the incoming edges of the maximal
// pure-g subtrees of n: elongating all of them by the same delay shifts the
// whole group coherently (the generalized wire-sneaking handle of thesis
// Fig. 5). Appends nothing when n itself is pure (no interior edge covers
// the group). dst is a reusable scratch buffer: callers own its lifetime.
func appendCoverHandles(dst []handle, m rctree.Model, n *ctree.Node, g int) []handle {
	if _, pure := n.PureGroup(); pure || n.IsLeaf() {
		return dst
	}
	var walk func(parent *ctree.Node, rUp float64)
	walk = func(parent *ctree.Node, rUp float64) {
		for _, side := range []ctree.Side{ctree.SideL, ctree.SideR} {
			ref := ctree.EdgeRef{Parent: parent, Side: side}
			child := ref.Child()
			if !child.HasGroup(g) {
				continue
			}
			if pg, pure := child.PureGroup(); pure && pg == g {
				dst = append(dst, handle{ref: ref, rUp: rUp})
				continue
			}
			if !child.IsLeaf() {
				walk(child, rUp+m.WireRes(ref.Len()))
			}
		}
	}
	walk(n, 0)
	return dst
}

// intersectWindows intersects the feasible X windows of all shared raw
// groups. On conflict it elongates the cover-handle edges of the offending
// group (wire sneaking) inside whichever subtree can shift it more cheaply,
// recomputing that subtree exactly and iterating until the intersection is
// feasible, the wire cost cap is hit, or iterations run out. compromised
// reports that the returned (degenerate) window is a least-violation
// compromise rather than a satisfiable constraint. It lays b.plan out for
// the pair first: sneaks change delays, never the layout.
func (b *builder) intersectWindows(na, nb *ctree.Node) (xLo, xHi float64, compromised bool) {
	b.layout(na, nb, !math.IsInf(b.interBound(), 1))
	m := b.opt.Model
	budget := b.opt.SneakCostCap * (geom.DistRR(na.Region, nb.Region) + 1)
	probe := b.opt.SneakProbe
	seq := 0
	if probe != nil {
		b.probeSeq++
		seq = b.probeSeq
	}
	for iter := 0; ; iter++ {
		xLo, xHi := math.Inf(-1), math.Inf(1)
		var gLo, gHi constraint
		b.forConstraints(na.Delay, nb.Delay, nil, nil, func(c constraint, ia, ib rctree.Interval, bd float64) {
			if lo := ib.Hi - ia.Lo - bd; lo > xLo {
				xLo, gLo = lo, c
			}
			if hi := ib.Lo - ia.Hi + bd; hi < xHi {
				xHi, gHi = hi, c
			}
		})
		if math.IsInf(xLo, -1) && math.IsInf(xHi, 1) {
			return xLo, xHi, false // no constraints at all
		}
		gap := xLo - xHi
		eps := 1e-9 * (1 + math.Abs(xLo) + math.Abs(xHi))
		if probe != nil {
			probe.Record("window", seq, iter, gap, xLo, xHi, 0, b.probeOffsets())
		}
		if gap <= eps || iter >= b.opt.MaxSneakIter || gLo == gHi {
			if gap > 0 {
				if gap > eps {
					b.stats.SneakUnresolved++
				}
				// Least-violation compromise: any X between the crossed
				// bounds violates at most gap; keep the middle half of that
				// range (max violation 3·gap/4 instead of gap/2 at the
				// midpoint) so the merge retains region freedom instead of
				// collapsing to a point and starving later merges.
				return xHi + gap/4, xLo - gap/4, gap > eps
			}
			return xLo, xHi, false
		}
		b.stats.SneakIters++
		// Close the gap: either slow constraint gHi on nb's side (raises its
		// window ceiling) or slow gLo on na's side (lowers its floor).
		// Pick the cheaper available cover.
		planB := b.sneakPlan(nb, gHi, gap, &b.sneakB)
		planA := b.sneakPlan(na, gLo, gap, &b.sneakA)
		plan, sub := planB, nb
		if planB == nil || (planA != nil && planA.wire < planB.wire) {
			plan, sub = planA, na
		}
		if plan == nil || plan.wire > budget {
			b.stats.SneakUnresolved++
			c := (xLo + xHi) / 2
			return c, c, true
		}
		// Apply tentatively and verify progress: the added snake capacitance
		// perturbs every delay in the subtree through shared ancestor
		// resistance, and when that crosstalk rivals the intended shift the
		// sneak cannot converge — revert and fall back to the compromise.
		for i, h := range plan.handles {
			h.ref.AddLen(plan.gammas[i])
		}
		sub.Recompute(m)
		if newGap := b.currentGap(na, nb); newGap > 0.7*gap {
			for i, h := range plan.handles {
				h.ref.AddLen(-plan.gammas[i])
			}
			sub.Recompute(m)
			if probe != nil {
				probe.Record("revert", seq, iter, newGap, xLo, xHi, plan.wire, nil)
			}
			b.stats.SneakUnresolved++
			c := (xLo + xHi) / 2
			return c, c, true
		}
		if probe != nil {
			probe.Record("sneak", seq, iter, gap, xLo, xHi, plan.wire, nil)
		}
		budget -= plan.wire
		b.stats.SneakEvents++
		b.stats.SneakWire += plan.wire
	}
}

// probeOffsets snapshots the registry's per-group cumulative offsets (each
// group's offset to its union root) into the probe scratch for one
// ProbeEvent.Vals record.
func (b *builder) probeOffsets() []float64 {
	if b.probeVals == nil {
		b.probeVals = make([]float64, b.in.NumGroups)
	}
	for g := range b.probeVals {
		_, b.probeVals[g] = b.uf.find(g)
	}
	return b.probeVals
}

// currentGap recomputes the window infeasibility of the pair in place.
func (b *builder) currentGap(na, nb *ctree.Node) float64 {
	xLo, xHi := math.Inf(-1), math.Inf(1)
	b.forConstraints(na.Delay, nb.Delay, nil, nil, func(_ constraint, ia, ib rctree.Interval, bd float64) {
		if lo := ib.Hi - ia.Lo - bd; lo > xLo {
			xLo = lo
		}
		if hi := ib.Lo - ia.Hi + bd; hi < xHi {
			xHi = hi
		}
	})
	if math.IsInf(xLo, -1) {
		return 0
	}
	return max(xLo-xHi, 0)
}

// sneak is a set of edge elongations that coherently delays one constraint's
// sinks inside a subtree. Its slices alias a sneakScratch buffer: a plan is
// valid until that buffer's next reuse, which is fine because plans are
// applied (or discarded) within the same intersectWindows iteration.
type sneak struct {
	handles []handle
	gammas  []float64
	wire    float64
}

// sneakPlan computes the edge elongations that add `delay` ps to every sink
// governed by constraint c in subtree n, or nil when no cover exists. For a
// raw-group constraint the cover is the group's maximal pure subtrees; for a
// union-root leash it is the union of the covers of all member groups
// present in n. buf provides the plan's backing storage.
func (b *builder) sneakPlan(n *ctree.Node, c constraint, delay float64, buf *sneakScratch) *sneak {
	m := b.opt.Model
	hs := buf.handles[:0]
	if c.raw {
		hs = appendCoverHandles(hs, m, n, c.id)
	} else {
		for _, g := range n.Groups {
			if r, _ := b.uf.find(g); r == c.id {
				hs = appendCoverHandles(hs, m, n, g)
			}
		}
	}
	buf.handles = hs
	if len(hs) == 0 {
		return nil
	}
	buf.plan = sneak{handles: hs, gammas: buf.gammas[:0]}
	p := &buf.plan
	for _, h := range hs {
		gam := m.ElongationFor(delay, h.ref.Len(), h.ref.Child().Cap, h.rUp)
		p.gammas = append(p.gammas, gam)
		p.wire += gam
	}
	buf.gammas = p.gammas
	return p
}

// splitWindow maps the X-shift window [xLo, xHi] (possibly infinite) into
// split space for a merge across distance d. Without snaking it returns the
// feasible split window (eLo, eHi, false) ⊆ [0, d] — width zero for exact
// merges, positive width when slack remains (the node then stays deferred
// over a sub-SDR). When the window lies outside the achievable span it
// returns the minimal committed snaked lengths (ea, eb, true).
func (b *builder) splitWindow(na, nb *ctree.Node, d, xLo, xHi float64, compromised bool) (float64, float64, bool) {
	m := b.opt.Model
	if compromised && d > 0 {
		// The window is a least-violation compromise of conflicting
		// constraints. Honoring it through moderate snaking keeps the
		// violation small, but spending extreme wire on an already
		// unattainable target is pointless: beyond the sneak cost cap,
		// clamp into the achievable span and accept the larger violation.
		x0 := -m.WireDelay(d, nb.Cap)
		xd := m.WireDelay(d, na.Cap)
		budget := b.opt.SneakCostCap * (d + 1)
		switch {
		case xLo > xd && m.ExtendForDelay(na.Cap, min(xLo, xHi))-d > budget,
			xHi < x0 && m.ExtendForDelay(nb.Cap, -max(xHi, xLo))-d > budget:
			x := min(max(min(xLo, xHi), x0), xd)
			xLo, xHi = x, x
		default:
			// Normalize the possibly inverted compromise range.
			if xLo > xHi {
				xLo, xHi = xHi, xLo
			}
		}
	}
	if b.opt.EndpointSplit && math.IsInf(xLo, -1) && math.IsInf(xHi, 1) {
		// Ablation: unconstrained merges commit the e=0 endpoint instead of
		// keeping the whole shortest-distance region.
		return 0, 0, false
	}

	if d <= 0 {
		switch {
		case xLo > 0:
			return max(m.ExtendForDelay(na.Cap, xLo), d), 0, true
		case xHi < 0:
			return 0, max(m.ExtendForDelay(nb.Cap, -xHi), d), true
		default:
			return 0, 0, false
		}
	}

	x0 := -m.WireDelay(d, nb.Cap) // X at e=0
	xd := m.WireDelay(d, na.Cap)  // X at e=d
	switch {
	case xHi < x0:
		// Must shift below what the span allows: all wire on B plus snake.
		return 0, max(m.ExtendForDelay(nb.Cap, -xHi), d), true
	case xLo > xd:
		return max(m.ExtendForDelay(na.Cap, xLo), d), 0, true
	default:
		eLo, eHi := 0.0, d
		if xLo > x0 {
			eLo = m.SplitForDiff(d, na.Cap, nb.Cap, xLo)
		}
		if xHi < xd {
			eHi = m.SplitForDiff(d, na.Cap, nb.Cap, xHi)
		}
		eLo = min(max(eLo, 0), d)
		eHi = min(max(eHi, eLo), d)
		return eLo, eHi, false
	}
}

// useGridPairer decides whether PairerAuto (or a forced mode) selects the
// spatial grid engine for this run.
func (b *builder) useGridPairer(n int, userKey bool) bool {
	switch b.opt.Pairer {
	case PairerGrid:
		return true
	case PairerScan:
		return false
	default:
		return n >= GridPairerThreshold && b.opt.DelayTargetBias == 0 && !userKey
	}
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("merges=%d (same=%d cross=%d shared=%d deferred=%d unions=%d) snakes=%d sneaks=%d/%d iters (+%.0f wire, %d unresolved) scans=%d rebuilds=%d (drop=%d clamp=%d rate=%d walk=%d)",
		s.Merges, s.SameGroup, s.CrossGroup, s.Shared, s.Deferred, s.GroupUnions,
		s.MergeSnakes, s.SneakEvents, s.SneakIters, s.SneakWire, s.SneakUnresolved, s.PairScans,
		s.GridRebuilds.Total(), s.GridRebuilds.LiveDrop, s.GridRebuilds.EdgeClamp,
		s.GridRebuilds.ScanRate, s.GridRebuilds.CellWalk)
}
