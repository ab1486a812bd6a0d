package shard

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/geom"
	"repro/internal/obs"
)

// ShardInfo describes one routed shard of a sharded run.
type ShardInfo struct {
	// Sinks is the shard's sink count.
	Sinks int
	// Wirelength is the committed wire of the shard's subtree, measured
	// after the stitch: a shard root the stitch resolved jointly (a
	// BuildSubtree root is left deferred for exactly that) commits its edges
	// during the stitch but they are the shard's wire, and sneak elongations
	// the stitch applies to edges inside the shard's subtree are included
	// too. Result.StitchWire is then the wire of the stitch-created nodes
	// alone, so Σ ShardInfo.Wirelength + StitchWire equals the tree wire
	// exactly and StitchWire can never be negative (the accounting test in
	// this package pins both on grouped multi-shard runs).
	Wirelength float64
	// Stats are the shard build's run stats (scans, rebuilds, merges, …).
	Stats core.Stats
}

// Result is a completed sharded routing. The embedded core.Result carries
// the stitched tree and the aggregate stats of every shard plus the stitch.
type Result struct {
	core.Result
	// Shards describes each routed shard in partition order; nil when
	// sharding was off (Options.Shards == 0) and the build was delegated to
	// core.Build unchanged.
	Shards []ShardInfo
	// StitchStats are the top-level stitch's own run stats (also included
	// in the aggregate).
	StitchStats core.Stats
	// StitchWire is the wire committed by the top-level stitch merges: the
	// total tree wire minus the shard subtrees' wire (never negative; see
	// ShardInfo.Wirelength for the attribution rules).
	StitchWire float64
	// Parts is the spatial partition backing the shard records: Parts[i]
	// lists shard i's sink IDs in partition order (shard.Partition output).
	// Nil when sharding was off. Consumers use it to attribute per-sink
	// measurements to shards — e.g. eval.SeamSkew's residual intra-group
	// skew across shard seams.
	Parts [][]int
	// PilotOffsets are the inter-group offsets the pilot offset pass
	// prescribed to every shard and the stitch (the Options.GroupOffsets
	// form: entry g is group g's delay minus group 0's, in ps). Nil when
	// the pilot was off or skipped (single-group instance).
	PilotOffsets []float64
	// PilotSinks is the number of sinks the pilot pass routed (0 = no
	// pilot); PilotStats are that route's run stats. Both are included in
	// the aggregate Result.Stats — the pilot is part of the run's cost —
	// and broken out here so its share is observable.
	PilotSinks int
	PilotStats core.Stats
	// Trace is the run's trace node (Options.Trace echoed back; nil when
	// untraced): top-level spans for the partition/pilot/shards/stitch/
	// finalize phases, with the pilot, each shard build, and the stitch
	// recording into child traces ("pilot", "shard0"…, "stitch").
	Trace *obs.Trace
	// Dispatch sums what fault handling cost across the run's dispatched
	// phases (pilot patches + shard builds): attempts, retries, hedged
	// straggler duplicates, contained panics, injected faults, and — under
	// remote dispatch (dispatch.Options.Remote) — tasks that degraded to
	// the in-process fallback and workers lost to blacklisting. All zero on
	// a fault-free run with no stragglers. The same counters are exported
	// as dispatch_* metrics on Trace.
	Dispatch dispatch.Report
	// Eco is the retained incremental-rebuild contract: the partition, the
	// frozen base registry, the pilot offset contract and every shard's
	// pre-stitch subtree, from which EcoCache.Rebuild re-routes an edited
	// instance by rebuilding only the dirty shards. Nil unless the build
	// retained it (BuildEco) or the result itself came from a rebuild
	// (Rebuild results always chain).
	Eco *EcoCache
	// EcoRebuilt lists the shard indices an incremental rebuild re-routed,
	// ascending (nil on a from-scratch build); EcoReused counts the cached
	// subtrees adopted unchanged. The differential tests pin "only dirty
	// shards were rebuilt" on these.
	EcoRebuilt []int
	EcoReused  int
}

// shardOut is one shard execution's product: the built subtree and the
// private registry whose offsets it committed. Both the local runner and
// the remote transport's decoder (remote.go) produce it, so the stitch
// never knows where a shard was routed.
type shardOut struct {
	sub *core.Subtree
	reg *core.Registry
}

// Build routes the instance according to opt.Shards: 0 delegates to the
// unsharded core.Build; k ≥ 1 partitions the instance into k shards, routes
// them concurrently against private clones of one frozen offset registry,
// and stitches the shard roots skew-aware with core.MergeRoots. Shards = 1
// is bitwise-identical to core.Build; Shards > 1 is deterministic for fixed
// (instance, options) regardless of scheduling (see the package comment).
//
// opt.Pilot additionally runs the pilot offset pass before the concurrent
// builds: deterministic full-density sink patches (cut by the same
// partitioner, independent of k) are routed unsharded, and the inter-group
// offsets they commit are prescribed to every shard and to the stitch via
// GroupOffsets, so the shards agree on one global offset contract instead
// of committing k contradictory ones (the package comment has the design).
// The pass is skipped on single-group instances, where no inter-group
// offset exists to prescribe.
//
// Sub-builds execute through the internal/dispatch coordinator under its
// default fault policy: a panicking shard or pilot patch surfaces as an
// error naming the phase (never a process crash), contained crashes retry
// with capped backoff, stragglers are hedged first-result-wins, and
// opt.Ctx cancellation propagates into every merge loop. Determinism is
// unaffected: every execution of a sub-build is a pure function of its
// inputs, so retried and hedged runs are bitwise-identical to undisturbed
// ones. BuildDispatch exposes the policy knobs (and the fault-injection
// harness) directly.
func Build(in *ctree.Instance, opt core.Options) (*Result, error) {
	return BuildDispatch(in, opt, dispatch.Options{})
}

// BuildDispatch is Build with an explicit dispatch policy: dopt tunes the
// fault-tolerance layer (retry budget and backoff, hedging deadline, worker
// cap, fault injection via dopt.Faults). dopt.Phase and dopt.Trace are
// overridden per pipeline phase ("pilot", "shard"); everything else applies
// to every dispatched phase unchanged. The zero value is the default policy
// Build uses.
func BuildDispatch(in *ctree.Instance, opt core.Options, dopt dispatch.Options) (*Result, error) {
	return buildDispatch(in, opt, dopt, false)
}

// BuildEco is BuildDispatch with contract retention: the result additionally
// carries an EcoCache (partition, frozen base registry, pilot offsets,
// per-shard pre-stitch subtrees frozen in memory) from which an edited
// instance can be re-routed incrementally (EcoCache.Rebuild). Retention costs
// one copy of the shard subtrees, so it is opt-in rather than the Build
// default. Requires opt.Shards ≥ 1 — the contract is the sharded
// pipeline's, an unsharded build has no partition to reuse.
func BuildEco(in *ctree.Instance, opt core.Options, dopt dispatch.Options) (*Result, error) {
	if opt.Shards <= 0 {
		return nil, fmt.Errorf("shard: eco retention requires Shards ≥ 1 (got %d)", opt.Shards)
	}
	return buildDispatch(in, opt, dopt, true)
}

func buildDispatch(in *ctree.Instance, opt core.Options, dopt dispatch.Options, retain bool) (*Result, error) {
	k := opt.Shards
	if k <= 0 {
		res, err := core.Build(in, opt) // rejects a stray opt.Pilot itself
		if err != nil {
			return nil, err
		}
		return &Result{Result: *res, Trace: opt.Trace}, nil
	}
	tr := opt.Trace
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if k > len(in.Sinks) {
		return nil, fmt.Errorf("shard: %d shards for %d sinks", k, len(in.Sinks))
	}
	if opt.Order.Pairer != nil {
		return nil, fmt.Errorf("shard: Order.Pairer cannot be shared across concurrent shard builds; leave it nil (each build constructs its own engine)")
	}

	// The sub-builds and the stitch route unsharded; the pilot pass (which
	// runs before GroupOffsets are prescribed below) validates opt.Pilot's
	// flag compatibility through core's option normalization.
	subOpt := opt
	subOpt.Shards = 0
	subOpt.Pilot = false
	// Pipeline components record into their own child traces below; the
	// parent trace holds the phase spans and stays on this goroutine.
	subOpt.Trace = nil
	if _, err := core.NewRegistry(in, opt); err != nil {
		return nil, err // surface Pilot/GroupOffsets/… option conflicts early
	}

	partRgn := tr.Begin("partition")
	var parts [][]int
	if err := dispatch.Protect("partition", func() error {
		parts = Partition(in, k)
		return nil
	}); err != nil {
		return nil, err
	}
	partRgn.End()

	var disp dispatch.Report
	var pilotOffs []float64
	var pilotStats core.Stats
	pilotSinks := 0
	if opt.Pilot && in.NumGroups > 1 {
		pilotRgn := tr.Begin("pilot")
		pilotOpt := subOpt
		if tr != nil {
			pilotOpt.Trace = tr.Child("pilot")
		}
		// Protect the pass's serial sections (sampling, median aggregation)
		// too: the dispatcher only contains panics inside patch executions.
		err := dispatch.Protect("pilot", func() error {
			var err error
			var rep dispatch.Report
			pilotOffs, pilotStats, pilotSinks, rep, err = runPilot(in, pilotOpt, dopt)
			disp.Add(rep)
			return err
		})
		pilotOpt.Trace.Close()
		if err != nil {
			return nil, err
		}
		pilotRgn.Attr("sinks", float64(pilotSinks)).End()
		// From here on the offsets are a prescribed contract: the base
		// registry pre-registers them, so every shard's leash and the
		// stitch's enforce the same inter-group alignment.
		subOpt.GroupOffsets = pilotOffs
	}

	base, err := core.NewRegistry(in, subOpt)
	if err != nil {
		return nil, err
	}

	shardOpt := deriveShardOpt(subOpt, k)

	// The shard builds go through the dispatch coordinator: each execution
	// (first attempt, retry or hedge alike) clones the frozen base registry
	// privately and routes its shard from scratch — a pure function of
	// (instance, part, options, base), so whichever execution wins, the
	// adopted subtree is bitwise the one the undisturbed build produces.
	// Only the first attempt records into the per-shard child trace (the
	// trace contract is single-goroutine per node; a retry racing a traced
	// hedge would otherwise interleave writes), so under faults a shard's
	// child trace shows the failed attempt while the metrics-bearing result
	// comes from the winner.
	shardsRgn := tr.Begin("shards").Attr("count", float64(k))
	shardTraces := make([]*obs.Trace, k)
	if tr != nil {
		for i := range shardTraces {
			shardTraces[i] = tr.Child("shard" + strconv.Itoa(i))
		}
	}
	local := dispatch.RunnerFunc(func(ctx context.Context, t dispatch.Task) (any, error) {
		so := shardOpt
		so.Ctx = ctx
		if t.Attempt == 0 {
			so.Trace = shardTraces[t.Index]
		}
		reg := base.Clone() // private view of the frozen base
		var sub *core.Subtree
		var err error
		// Label the goroutine so -cpuprofile samples attribute to shards.
		pprof.Do(ctx, pprof.Labels("shard", strconv.Itoa(t.Index)), func(context.Context) {
			sub, err = core.BuildSubtree(in, parts[t.Index], so, reg)
		})
		if err != nil {
			return nil, err
		}
		return shardOut{sub: sub, reg: reg}, nil
	})
	// With a worker pool attached, shard builds ship to routeworkers and
	// degrade back to the local runner when the fleet cannot take them (see
	// remote.go); the dispatch report picks up the degradation counters
	// after the run drains.
	var runner dispatch.Runner = local
	if dopt.Remote != nil {
		rr, err := newRemoteShardRunner(dopt.Remote, in, shardOpt, base, parts, local, dopt.Faults)
		if err != nil {
			return nil, err
		}
		runner = rr
	}
	shardDopt := dopt
	shardDopt.Phase = "shard"
	shardDopt.Trace = tr
	outs, rep, err := dispatch.Run(opt.Ctx, k, runner, shardDopt)
	disp.Add(rep)
	for _, st := range shardTraces {
		st.Close()
	}
	shardsRgn.End()
	if err != nil {
		return nil, err
	}
	subs := make([]*core.Subtree, k)
	regs := make([]*core.Registry, k)
	for i, out := range outs {
		so := out.(shardOut)
		subs[i], regs[i] = so.sub, so.reg
	}

	roots := make([]*ctree.Node, k)
	for i, s := range subs {
		roots[i] = s.Root
	}

	// Contract retention freezes every shard subtree BEFORE the stitch:
	// MergeRoots adopts the roots and mutates them in place (deferred-root
	// resolution, sneak elongation), so the reusable form only exists here.
	// A thawed copy is bitwise the build that produced it, which is what lets
	// a later rebuild adopt clean shards without re-routing them.
	var ecoShards []ecoShard
	if retain {
		retainRgn := tr.Begin("retain")
		if err := dispatch.Protect("retain", func() error {
			ecoShards = make([]ecoShard, k)
			for i, s := range subs {
				ecoShards[i] = retainShard(s, regs[i])
			}
			return nil
		}); err != nil {
			return nil, err
		}
		retainRgn.End()
	}

	// The stitch routes against the frozen base: offsets committed inside a
	// shard are already baked into its root's delay intervals, and the
	// shards' private registries may disagree — the stitch windows are what
	// reconcile them. With a single shard there is nothing to reconcile, so
	// the stitch adopts the shard's own registry, making the whole pipeline
	// (stats included) exactly the unsharded sequence.
	topReg := base
	if k == 1 {
		topReg = regs[0]
	}
	stitchRgn := tr.Begin("stitch")
	stitchOpt := subOpt
	if tr != nil {
		stitchOpt.Trace = tr.Child("stitch")
	}
	// The stitch is a single serial merge pass on this goroutine; Protect
	// gives it the same containment guarantee as the dispatched builds — a
	// panic surfaces as an error naming the phase, never a crash.
	var top *core.Subtree
	err = dispatch.Protect("stitch", func() error {
		var err error
		top, err = core.MergeRoots(in, roots, stitchOpt, topReg)
		return err
	})
	stitchOpt.Trace.Close()
	stitchRgn.End()
	if err != nil {
		return nil, err
	}

	finRgn := tr.Begin("finalize")
	res := &Result{
		Result: core.Result{
			Instance: in,
			Root:     top.Root,
			Options:  opt,
		},
		Shards:       make([]ShardInfo, k),
		StitchStats:  top.Stats,
		Parts:        parts,
		PilotOffsets: pilotOffs,
		PilotSinks:   pilotSinks,
		PilotStats:   pilotStats,
		Trace:        tr,
		Dispatch:     disp,
	}
	if err := dispatch.Protect("finalize", func() error {
		return finalizeResult(res, in, subs, roots, parts, top, base, pilotStats)
	}); err != nil {
		return nil, err
	}
	finRgn.End()
	if retain {
		res.Eco = &EcoCache{
			Instance:     in,
			Opt:          stripLocalOnly(opt),
			Parts:        parts,
			Base:         base.Snapshot(),
			PilotOffsets: pilotOffs,
			PilotSinks:   pilotSinks,
			shards:       ecoShards,
		}
	}
	return res, nil
}

// deriveShardOpt derives the per-shard build options from the sub-build
// options: for k > 1 it drops the sneak probe, because a Probe is
// single-goroutine and concurrent shard builds would race on it (the serial
// components — pilot, stitch — still record; runs wanting complete sneak
// capture use Shards ≤ 1). k = 1 leaves the options untouched, preserving
// bitwise identity with the unsharded build. Shared by the from-scratch
// pipeline and the incremental rebuild so the dirty shards of a rebuild see
// exactly the options the original shards saw.
func deriveShardOpt(subOpt core.Options, k int) core.Options {
	shardOpt := subOpt
	if k > 1 {
		shardOpt.SneakProbe = nil
	}
	return shardOpt
}

// finalizeResult assembles the post-stitch bookkeeping shared by the
// from-scratch pipeline and the incremental rebuild: per-shard wire
// attribution, stats aggregation, dense internal-ID renumbering (k > 1) and
// the source embedding. res must arrive with Shards pre-sized to len(subs).
func finalizeResult(res *Result, in *ctree.Instance, subs []*core.Subtree, roots []*ctree.Node,
	parts [][]int, top *core.Subtree, base *core.Registry, pilotStats core.Stats) error {
	k := len(subs)
	var agg core.Stats
	agg.AddRun(pilotStats) // zero when the pilot was off
	var shardWire float64
	for i, s := range subs {
		w := roots[i].Wirelength()
		res.Shards[i] = ShardInfo{Sinks: len(parts[i]), Wirelength: w, Stats: s.Stats}
		shardWire += w
		agg.AddRun(s.Stats)
	}
	agg.AddRun(top.Stats)
	agg.GroupUnions += base.PreUnions()
	res.Stats = agg

	if k > 1 {
		// Internal node IDs were assigned per shard (and restart in the
		// stitch); renumber them densely above the sink IDs so IDs are
		// unique within the run, as core.Build guarantees. Shards = 1 takes
		// the unsharded numbering as-is, preserving bitwise identity.
		next := len(in.Sinks)
		top.Root.Visit(func(n *ctree.Node) {
			if !n.IsLeaf() {
				n.ID = next
				next++
			}
		})
	}

	treeWire := top.Root.Wirelength()
	res.SourceWire = geom.DistRP(top.Root.Region, geom.ToUV(in.Source))
	res.Wirelength = treeWire + res.SourceWire
	res.StitchWire = treeWire - shardWire
	res.Root.Embed(geom.ToUV(in.Source))
	return nil
}
