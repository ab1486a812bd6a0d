package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Pilot sample geometry. The estimator is a median over pilotPatches
// independent patch routes, each of pilotPatchSinks sinks:
//
//   - Patches are *spatially compact at full density*. Offsets are
//     differences of subtree delays and Elmore delay grows with sink
//     spacing, so a sample spread over the die routes at a fraction of the
//     instance's density and commits offsets whose noise floor is inflated
//     by the density ratio (measured on intermingled uniform 50k: a spread
//     n/5 sample commits ~30 ps of offset noise where the full build's
//     natural offsets are under 1 ps, and prescribing that noise forces
//     real skew into every shard for 1.14× the unsharded wire; full-density
//     patches land at ~1 ps and ≤1.02×).
//   - Patches must be a few hundred sinks. Offsets commit where merges
//     first span groups, and in a tiny patch that happens at leaf scale,
//     where single merge imbalances (~20 ps on the 10k instances) dominate;
//     a few hundred sinks push the commits deep enough that the imbalances
//     wash out.
//   - One patch is an unreliable witness — any single region can commit an
//     outlier offset — so the pass routes patches around the shard medians
//     of a fixed pilotPatches-way partition (the same partitioner as the
//     build; an odd count makes the median an element) and takes the
//     per-group median across the estimates, which votes down outliers.
//     Using a fixed pilot partition rather than the build's makes the
//     contract a function of the instance alone: every shard count routes
//     against the same offsets.
//
// pilotGroupPatch is the coverage patch size added, per patch route, for
// every group the patch itself missed (clustered groupings concentrate
// groups spatially, so a compact patch can miss one entirely): enough sinks
// around the group's own centroid to route the group at its local density.
// Coverage guarantees each patch route spans every group, so its root
// commits a complete contract.
const (
	pilotPatches    = 5
	pilotPatchSinks = 256
	pilotGroupPatch = 32
)

// pilotPatchSample returns the deterministic sink-ID sample of one patch
// route: the q sinks of part nearest part's median (u, v), plus a coverage
// patch around the centroid of every group absent from that core patch. The
// result is sorted by sink ID and duplicate-free; q ≥ the instance size
// degenerates to the full ID set.
func pilotPatchSample(in *ctree.Instance, part []int, q int) []int {
	if q >= len(in.Sinks) {
		ids := make([]int, len(in.Sinks))
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	us := make([]float64, len(part))
	vs := make([]float64, len(part))
	for i, id := range part {
		p := geom.ToUV(in.Sinks[id].Loc)
		us[i], vs[i] = p.U, p.V
	}
	sort.Float64s(us)
	sort.Float64s(vs)
	ids := nearestPatch(in, part, geom.UV{U: us[len(us)/2], V: vs[len(vs)/2]}, q)

	seen := make([]bool, in.NumGroups)
	for _, id := range ids {
		seen[in.Sinks[id].Group] = true
	}
	byGroup := make([][]int, in.NumGroups)
	covered := true
	for _, s := range in.Sinks {
		if !seen[s.Group] {
			byGroup[s.Group] = append(byGroup[s.Group], s.ID)
			covered = false
		}
	}
	if !covered {
		for g := 0; g < in.NumGroups; g++ {
			if members := byGroup[g]; len(members) > 0 {
				c := centroidUV(in, members)
				ids = append(ids, nearestPatch(in, members, c, pilotGroupPatch)...)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// centroidUV returns the uv centroid of the given sinks.
func centroidUV(in *ctree.Instance, ids []int) geom.UV {
	var c geom.UV
	for _, id := range ids {
		p := geom.ToUV(in.Sinks[id].Loc)
		c.U += p.U
		c.V += p.V
	}
	c.U /= float64(len(ids))
	c.V /= float64(len(ids))
	return c
}

// nearestPatch returns the q candidate sink IDs nearest the uv anchor (ties
// toward the smaller ID): a spatially compact patch at the candidates' own
// placement density. Distances are precomputed once per candidate so the
// comparator never re-derives uv transforms (a core patch sorts a whole
// pilot part, a coverage patch a whole group). candidates is not mutated.
func nearestPatch(in *ctree.Instance, candidates []int, anchor geom.UV, q int) []int {
	if q > len(candidates) {
		q = len(candidates)
	}
	type keyed struct {
		d2 float64
		id int
	}
	entries := make([]keyed, len(candidates))
	for i, id := range candidates {
		p := geom.ToUV(in.Sinks[id].Loc)
		du, dv := p.U-anchor.U, p.V-anchor.V
		entries[i] = keyed{d2: float64(du*du) + float64(dv*dv), id: id}
	}
	// A strict (d², id) order over finite distances: one permutation,
	// whichever sort computes it.
	slices.SortFunc(entries, func(a, b keyed) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	ids := make([]int, q)
	for i := range ids {
		ids[i] = entries[i].id
	}
	return ids
}

// runPilot is the pilot offset pass: route pilotPatches deterministic patch
// samples with the unsharded engine, each a sub-build on a fresh registry,
// commit each patch root on the coordinator with the one-root
// core.MergeRoots against the registry its result carries (the exact
// decomposition of core.Build, so the root's offsets are registered), read
// each patch's committed inter-group offsets back out of that registry,
// and return the per-group median across the estimates in the
// Options.GroupOffsets form for the shard builds and the stitch to enforce.
// The routed pilot trees are discarded; only the offset contract and the
// pass's cost (stats, sinks routed) survive. Every sample holds every group
// (pilotPatchSample's coverage patches), so every committed root relates
// them all, and a patch that leaves a group unrelated is an error. opt
// must be the normalized sub-build options (Shards and Pilot cleared, no
// GroupOffsets).
//
// The patch builds execute in one round through the dispatch coordinator
// (phase "pilot"): concurrently, with panic containment, retry and hedging,
// and every execution on a fresh registry — a patch build is a pure
// function of (instance, sample, options), so the pass's estimates are
// identical whichever attempt delivers them. Patches are committed and
// their estimates aggregated in patch-index order, keeping the median's
// inputs deterministic.
func runPilot(in *ctree.Instance, opt core.Options, dopt dispatch.Options) (offs []float64, stats core.Stats, sinks int, rep dispatch.Report, err error) {
	p := pilotPatches
	if p > len(in.Sinks) {
		p = len(in.Sinks)
	}
	parts := Partition(in, p)
	fresh, err := core.NewRegistry(in, opt)
	if err != nil {
		return nil, stats, sinks, rep, err
	}
	// Samples are computed serially up front: they are cheap relative to
	// their routes, and the first sample that degenerates to the full sink
	// set bounds the dispatch — the parts after it would repeat the
	// identical full route bitwise, so they are never dispatched.
	samples := make([][]int, 0, len(parts))
	for _, part := range parts {
		ids := pilotPatchSample(in, part, pilotPatchSinks)
		samples = append(samples, ids)
		if len(ids) == len(in.Sinks) {
			break
		}
	}

	// One child trace per patch route (spans and metrics of the patch's own
	// build nest under it; the pilot trace aggregates over children via
	// MetricValue).
	sb := &subBuilds{
		phase:  "pilot",
		in:     in,
		unit:   wire.WorkUnit{NumGroups: in.NumGroups, Source: in.Source, Opt: opt, Registry: fresh.Snapshot()},
		sinks:  make([][]*ctree.Sink, len(samples)),
		traces: make([]*obs.Trace, len(samples)),
	}
	for pi, ids := range samples {
		sb.sinks[pi] = in.SinkList(ids)
	}
	if opt.Trace != nil {
		for pi := range sb.traces {
			sb.traces[pi] = opt.Trace.Child("patch" + strconv.Itoa(pi))
		}
	}
	outs, rep, err := sb.run(opt.Ctx, dopt, opt.Trace)
	if err != nil {
		return nil, stats, sinks, rep, err
	}

	ests := make([][]float64, 0, len(outs))
	for pi, br := range outs {
		sinks += len(samples[pi])
		reg, err := core.NewRegistryFromSnapshot(br.Registry)
		if err != nil {
			return nil, stats, sinks, rep, err
		}
		top, err := core.MergeRoots([]*ctree.Node{br.Root}, in.NumGroups, in.Source, opt, reg)
		if err != nil {
			return nil, stats, sinks, rep, fmt.Errorf("shard: pilot patch %d: %w", pi, err)
		}
		// The build and its commit are summed as one patch run first:
		// SneakWire is a float sum, so the grouping fixes its bits.
		var st core.Stats
		st.AddRun(br.Stats)
		st.AddRun(top.Stats)
		stats.AddRun(st)
		est, err := reg.Offsets()
		if err != nil {
			return nil, stats, sinks, rep, fmt.Errorf("shard: pilot patch %d committed no complete offset contract: %w", pi, err)
		}
		ests = append(ests, est)
	}
	if n := len(samples); len(samples[n-1]) == len(in.Sinks) {
		// A sample that degenerated to the full sink set routed the exact
		// contract — it outvotes every patch estimate (and the parts after
		// it were never dispatched).
		ests = ests[n-1:]
	}
	offs = make([]float64, in.NumGroups)
	vals := make([]float64, 0, len(ests))
	for g := 1; g < in.NumGroups; g++ {
		vals = vals[:0]
		for _, e := range ests {
			vals = append(vals, e[g])
		}
		sort.Float64s(vals)
		offs[g] = vals[(len(vals)-1)/2]
	}
	return offs, stats, sinks, rep, nil
}
