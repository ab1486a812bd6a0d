package shard

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ShardInfo describes one routed shard of a sharded run.
type ShardInfo struct {
	// Sinks is the shard's sink count.
	Sinks int
	// Wirelength is the committed wire of the shard's subtree, measured
	// after the stitch: a shard root the stitch resolved jointly (a shard
	// build leaves its root deferred for exactly that) commits its edges
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
	// finalize/embed phases, with the pilot, each shard build, and the stitch
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
	// pilot offset contract and every shard's pre-stitch subtree, from which
	// EcoCache.Rebuild re-routes an edited instance by rebuilding only the
	// dirty shards. Nil unless the build retained it (BuildEco) or the
	// result itself came from a rebuild (Rebuild results always chain).
	Eco *EcoCache
	// EcoRebuilt lists the shard indices an incremental rebuild re-routed,
	// ascending (nil on a from-scratch build); EcoReused counts the cached
	// subtrees adopted unchanged. The differential tests pin "only dirty
	// shards were rebuilt" on these.
	EcoRebuilt []int
	EcoReused  int
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
// fault policy: a panicking shard or pilot patch surfaces as an error naming
// the phase (never a process crash), contained crashes retry with capped
// backoff, stragglers are hedged first-result-wins, and opt.Ctx
// cancellation propagates into every merge loop. Determinism is unaffected:
// every execution of a sub-build is a pure function of its inputs, so
// retried and hedged runs are bitwise-identical to undisturbed ones.
func Build(in *ctree.Instance, opt core.Options) (*Result, error) {
	return BuildDispatch(in, opt, dispatch.Options{})
}

// BuildDispatch is Build with explicit dispatch options: dopt can route the
// sub-builds to a remote worker pool (dopt.Remote), inject faults
// (dopt.Faults) and swap the coordinator's clock (dopt.Clock). dopt.Phase
// and dopt.Trace are overridden per pipeline phase ("pilot", "shard");
// everything else applies to every dispatched phase unchanged. The zero
// value is what Build uses.
func BuildDispatch(in *ctree.Instance, opt core.Options, dopt dispatch.Options) (*Result, error) {
	return buildDispatch(in, opt, dopt, false)
}

// BuildEco is BuildDispatch with contract retention: the result additionally
// carries an EcoCache (partition, pilot offsets, per-shard pre-stitch
// subtrees frozen in memory) from which an edited instance can be re-routed
// incrementally (EcoCache.Rebuild). Retention costs one copy of the shard
// subtrees, so it is opt-in rather than the Build default. Requires
// opt.Shards ≥ 1 — the contract is the sharded pipeline's, an unsharded
// build has no partition to reuse.
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

	res := &Result{Result: core.Result{Instance: in, Options: opt}, Trace: tr}
	partRgn := tr.Begin("partition")
	if err := dispatch.Protect("partition", func() error {
		res.Parts = Partition(in, k)
		return nil
	}); err != nil {
		return nil, err
	}
	partRgn.End()

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
			res.PilotOffsets, res.PilotStats, res.PilotSinks, res.Dispatch, err = runPilot(in, pilotOpt, dopt)
			return err
		})
		pilotOpt.Trace.Close()
		if err != nil {
			return nil, err
		}
		pilotRgn.Attr("sinks", float64(res.PilotSinks)).End()
		// From here on the offsets are a prescribed contract: the base
		// registry pre-registers them, so every shard's leash and the
		// stitch's enforce the same inter-group alignment.
		subOpt.GroupOffsets = res.PilotOffsets
	}

	base, err := core.NewRegistry(in, subOpt)
	if err != nil {
		return nil, err
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	if err := routeShards(res, subOpt, base, all, nil, nil, retain, dopt); err != nil {
		return nil, err
	}
	return res, nil
}

// routeShards is the back half of the pipeline, shared by a build and an
// incremental rebuild once their front half has fixed the partition
// (res.Parts), the sub-build options and the frozen base registry. It routes
// the shards listed in todo through the dispatch coordinator while it adopts
// every other shard from the cache being rebuilt on one more goroutine
// (from, whose survivors the edit script renumbers by oldToNew, nil when it
// renumbered none; from is nil on a build, which routes every shard),
// freezes the routed shards for the chained cache when it retains, then
// stitches all roots and finalizes res. res arrives carrying the front
// half's fields: instance, options, partition, pilot record and dispatch
// report.
//
// Each shard execution (first attempt, retry or hedge alike) reconstructs a
// private registry from the frozen base and routes its shard from scratch —
// a pure function of (instance, part, options, base), so whichever execution
// wins, the adopted subtree is bitwise the one the undisturbed build
// produces.
func routeShards(res *Result, subOpt core.Options, base *core.Registry, todo []int,
	from *EcoCache, oldToNew []int, retain bool, dopt dispatch.Options) error {
	in, parts, tr := res.Instance, res.Parts, res.Trace
	k := len(parts)
	// A rebuild names its fan-out and stitch spans apart from a build's.
	fanout, count, stitch := "shards", "count", "stitch"
	if from != nil {
		fanout, count, stitch = "rebuild", "shards", "restitch"
	}

	fanRgn := tr.Begin(fanout).Attr(count, float64(len(todo)))
	sb := &subBuilds{
		phase:  "shard",
		in:     in,
		unit:   wire.WorkUnit{NumGroups: in.NumGroups, Source: in.Source, Opt: subOpt, Registry: base.Snapshot()},
		sinks:  make([][]*ctree.Sink, len(todo)),
		traces: make([]*obs.Trace, len(todo)),
		shards: todo,
	}
	for j, i := range todo {
		sb.sinks[j] = in.SinkList(parts[i])
		if tr != nil {
			sb.traces[j] = tr.Child("shard" + strconv.Itoa(i))
		}
	}
	subs := make([]*wire.BuildResult, k)
	var chain []ecoShard
	if retain {
		chain = make([]ecoShard, k)
	}
	// A rebuild thaws its clean shards on one more goroutine while the
	// dirty ones route; the fan-out span covers the wait for it.
	var adopted chan error
	if from != nil {
		adopted = make(chan error, 1)
		atr := tr.Child("adopt")
		go func() { adopted <- adopt(atr, in, from, todo, oldToNew, subs, chain) }()
	}
	outs, rep, err := sb.run(subOpt.Ctx, dopt, tr)
	res.Dispatch.Add(rep)
	if adopted != nil {
		if aerr := <-adopted; err == nil {
			err = aerr
		}
	}
	fanRgn.End()
	if err != nil {
		return err
	}
	for j, i := range todo {
		subs[i] = outs[j]
	}
	roots := make([]*ctree.Node, k)
	for i, s := range subs {
		roots[i] = s.Root
	}

	// Retention freezes the routed shards BEFORE the stitch: MergeRoots
	// adopts the roots and mutates them in place (deferred-root resolution,
	// sneak elongation), so the reusable form only exists here. A thawed
	// copy is bitwise the build that produced it, which is what lets a
	// later rebuild adopt clean shards without re-routing them.
	if retain {
		retainRgn := tr.Begin("retain")
		if err := dispatch.Protect("retain", func() error {
			for _, i := range todo {
				chain[i] = ecoShard{frozen: ctree.Freeze(subs[i].Root), reg: subs[i].Registry, stats: subs[i].Stats}
			}
			return nil
		}); err != nil {
			return err
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
		if topReg, err = core.NewRegistryFromSnapshot(subs[0].Registry); err != nil {
			return err
		}
	}
	stitchRgn := tr.Begin(stitch)
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
		top, err = core.MergeRoots(roots, in.NumGroups, in.Source, stitchOpt, topReg)
		return err
	})
	stitchOpt.Trace.Close()
	stitchRgn.End()
	if err != nil {
		return err
	}

	// Finalize: per-shard wire attribution, stats aggregation, dense
	// internal-ID renumbering and the stitched root's group skew. The source
	// embedding follows in its own phase, as in core.Build.
	finRgn := tr.Begin("finalize")
	if err := dispatch.Protect("finalize", func() error {
		res.Root = top.Root
		res.StitchStats = top.Stats
		res.Shards = make([]ShardInfo, k)
		var agg core.Stats
		agg.AddRun(res.PilotStats) // zero when the pilot was off
		for i, s := range subs {
			res.Shards[i] = ShardInfo{Sinks: len(parts[i]), Stats: s.Stats}
			agg.AddRun(s.Stats)
		}
		agg.AddRun(top.Stats)
		agg.GroupUnions += base.PreUnions()
		res.Stats = agg

		// Internal node IDs were assigned per shard (and restart in the
		// stitch); with k > 1 the walk renumbers them densely above the
		// sink IDs so IDs are unique within the run, as core.Build
		// guarantees. Shards = 1 takes the unsharded numbering as-is,
		// preserving bitwise identity.
		treeWire, err := finalizeWalk(top.Root, roots, res.Shards, len(in.Sinks), k > 1)
		if err != nil {
			return err
		}
		var shardWire float64
		for i := range res.Shards {
			shardWire += res.Shards[i].Wirelength
		}
		res.SourceWire = geom.DistRP(top.Root.Region, geom.ToUV(in.Source))
		res.Wirelength = treeWire + res.SourceWire
		res.MaxGroupSkew = top.Root.Delay.MaxWidth()
		res.StitchWire = treeWire - shardWire
		return nil
	}); err != nil {
		return err
	}
	finRgn.End()

	embRgn := tr.Begin("embed")
	if err := dispatch.Protect("embed", func() error {
		res.Root.Embed(geom.ToUV(in.Source))
		return nil
	}); err != nil {
		return err
	}
	embRgn.End()

	if retain {
		res.Eco = &EcoCache{
			Instance:     in,
			Opt:          stripLocalOnly(res.Options),
			Parts:        parts,
			PilotOffsets: res.PilotOffsets,
			PilotSinks:   res.PilotSinks,
			shards:       chain,
		}
	}
	return nil
}

// adopt thaws every shard of from that todo does not list into subs, and
// records in chain the snapshot the chained cache keeps for it, with its
// leaves carried through oldToNew (nil: no survivor was renumbered). It
// runs while the listed shards route, so it writes only the entries of the
// shards it adopts and records into tr, a child trace made for it. The
// snapshots are only read, so from stays reusable and the chained cache
// shares them.
func adopt(tr *obs.Trace, in *ctree.Instance, from *EcoCache, todo, oldToNew []int,
	subs []*wire.BuildResult, chain []ecoShard) error {
	defer tr.Close()
	rgn := tr.Begin("adopt").Attr("shards", float64(len(subs)-len(todo)))
	defer rgn.End()
	return dispatch.Protect("adopt", func() error {
		routed := make([]bool, len(subs))
		for _, i := range todo {
			routed[i] = true
		}
		for i := range subs {
			if routed[i] {
				continue
			}
			sh := &from.shards[i]
			chain[i] = *sh
			if oldToNew != nil {
				chain[i].leaves = sh.carry(oldToNew)
			}
			subs[i] = &wire.BuildResult{Root: sh.frozen.Thaw(in, chain[i].leaves), Stats: sh.stats, Registry: sh.reg}
		}
		return nil
	})
}

// finalizeWalk is finalize's one walk over the stitched tree. It returns the
// tree's wire and records each shard root's wire in shards[i].Wirelength,
// both summed with Node.Wirelength's association, so every value is bitwise
// what that method returns; when renumber is set it also gives every
// internal node a dense pre-order ID from next up, as a Visit would. A
// shard root missing from the tree is an error.
func finalizeWalk(top *ctree.Node, roots []*ctree.Node, shards []ShardInfo, next int, renumber bool) (float64, error) {
	shardOf := make(map[*ctree.Node]int, len(roots))
	for i, r := range roots {
		shardOf[r] = i
	}
	found := 0
	// stitched: no shard root lies above n, so n may be one.
	var walk func(n *ctree.Node, stitched bool) float64
	walk = func(n *ctree.Node, stitched bool) float64 {
		i, root := 0, false
		if stitched {
			i, root = shardOf[n]
			stitched = !root
		}
		w := 0.0
		if !n.IsLeaf() {
			if renumber {
				n.ID = next
				next++
			}
			// A leaf's wire is 0: below the shard roots, skip the call.
			var l, r float64
			if stitched || !n.Left.IsLeaf() {
				l = walk(n.Left, stitched)
			}
			if stitched || !n.Right.IsLeaf() {
				r = walk(n.Right, stitched)
			}
			w = n.EdgeL + n.EdgeR + l + r
		}
		if root {
			shards[i].Wirelength = w
			found++
		}
		return w
	}
	w := walk(top, true)
	if found != len(roots) {
		return 0, fmt.Errorf("shard: finalize: %d of %d shard roots in the stitched tree", found, len(roots))
	}
	return w, nil
}
