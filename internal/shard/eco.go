package shard

// Incremental (ECO) rerouting. A retained sharded build (BuildEco) leaves
// behind an EcoCache: the partition, the frozen base registry with the pilot
// offset contract baked in, and every shard's pre-stitch subtree frozen in
// memory (ctree.Frozen). Rebuild applies an instio edit script
// (move/reload/add/remove sinks) to the cached instance, derives the dirty
// shard set from the cached partition — an edited sink dirties the shard
// that owns it; an added sink dirties the shard of its nearest surviving
// neighbor, found through an incrementally patched spatial index over the
// sink placements — and re-routes ONLY the dirty shards through the same
// dispatch.Run path the from-scratch pipeline uses (retry, hedging, panic
// containment and remote workers apply unchanged). Clean shards are adopted
// from the cache by thawing a fresh copy of their frozen subtrees, one slab
// copy each, with leaf identity remapped onto the edited instance; no hop
// touches the wire codec. All roots are then re-stitched with MergeRoots
// against a fresh reconstruction of the frozen base, i.e. under the cached
// pilot contract, so the rebuilt tree keeps the from-scratch build's
// inter-group alignment (seam skew at float noise) without re-running the
// pilot.
//
// The contract is sound because a sub-build is a pure function of
// (instance, sink subset, options, frozen registry): a clean shard's sinks
// are untouched by the edit script, its options and registry are cached, so
// the thawed subtree is bitwise the subtree a from-scratch build of the
// edited instance would produce for that shard. What the contract cannot
// absorb — edits that empty a shard or leave no sink to anchor an addition —
// surfaces as ErrFullBuild; edits that empty a group are rejected by
// EditScript.Apply outright. Every Rebuild result chains: it carries a new
// EcoCache for the edited instance, so ECO sequences compound without ever
// paying a full build.

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/geom"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/spatial"
	"repro/internal/wire"
)

// ErrFullBuild marks an edit script the cached contract cannot absorb
// incrementally (an emptied shard, or no surviving sink to anchor an added
// one). Callers should fall back to a from-scratch BuildEco of the edited
// instance; errors.Is recognizes the sentinel through the wrapping detail.
var ErrFullBuild = errors.New("shard: edits invalidate the cached contract; run a full build")

// EcoCache is a retained incremental-rebuild contract (see the file
// comment). It is produced by BuildEco and by every Rebuild, and survives
// process boundaries through Marshal/UnmarshalEcoCache. A cache is safe to
// Rebuild repeatedly (each call re-derives its scratch state), but not from
// concurrent goroutines.
type EcoCache struct {
	// Instance is the routed instance the contract describes.
	Instance *ctree.Instance
	// Opt is the build's option set (Shards/Pilot included) with the
	// local-only fields stripped; rebuilds re-derive the sub-build and
	// per-shard options from it exactly as the from-scratch pipeline does.
	Opt core.Options
	// Parts is the cached partition: Parts[i] lists shard i's sink IDs.
	Parts [][]int
	// Base is the frozen base registry every shard cloned, with the pilot
	// offsets pre-registered; PilotOffsets is the offset contract itself
	// (nil when the pilot was off) and PilotSinks its routed sample size.
	Base         core.RegistrySnapshot
	PilotOffsets []float64
	PilotSinks   int
	// shards[i] is shard i's retained pre-stitch build (see ecoShard).
	shards []ecoShard

	// Scratch state, derived lazily per rebuild: the sink→shard map of
	// Parts, and a spatial index over the sink placements used to assign
	// added sinks to shards. The index is patched incrementally as the edit
	// script is walked and handed to the chained cache when sink identity
	// survives the edit (no removals); a consumed or invalidated index is
	// simply rebuilt on the next use.
	sinkShard []int
	idx       *spatial.Index
}

// ecoShard is one shard's retained pre-stitch build: the subtree frozen in
// memory, the registry state and stats the build committed, and the pending
// leaf renumbering. A rebuild adopts a clean shard by thawing a fresh copy
// of frozen and hands the same snapshot to the chained cache, composing the
// edit script's renumbering onto remap instead of rewriting the subtree.
type ecoShard struct {
	// frozen's leaf sink ids live in the id space of the instance the shard
	// was built for; remap, when non-nil, carries them onto the cache's
	// Instance (remap[old] = current id).
	frozen *ctree.Frozen
	remap  []int
	reg    core.RegistrySnapshot
	stats  core.Stats
	// sealed is the shard's wire.BuildResult encoding while frozen is still
	// nil: a cache read by UnmarshalEcoCache keeps its blobs sealed and
	// decodes each one, through the wire codec's full validation, the first
	// time a rebuild adopts it.
	sealed []byte
}

// retainShard freezes a freshly built shard for the chained cache. It must
// run before the stitch mutates the subtree.
func retainShard(sub *core.Subtree, reg *core.Registry) ecoShard {
	return ecoShard{frozen: ctree.Freeze(sub.Root), reg: reg.Snapshot(), stats: sub.Stats}
}

// unseal decodes and freezes shard i's sealed blob on first use. The blob
// crossed a process boundary, so beyond the codec's own validation its
// leaves must be exactly the cached partition's shard i, each sink once:
// a mismatch would otherwise surface as a corrupt tree three layers down.
func (c *EcoCache) unseal(i int) (*ecoShard, error) {
	sh := &c.shards[i]
	if sh.frozen != nil {
		return sh, nil
	}
	br, err := wire.DecodeResult(sh.sealed, c.Instance)
	if err != nil {
		return nil, fmt.Errorf("shard: cached shard %d: %w", i, err)
	}
	want := make([]bool, len(c.Instance.Sinks))
	for _, s := range c.Parts[i] {
		want[s] = true
	}
	leaves, stray := 0, false
	br.Root.Visit(func(n *ctree.Node) {
		if n.IsLeaf() {
			stray = stray || !want[n.Sink.ID]
			want[n.Sink.ID] = false
			leaves++
		}
	})
	if stray || leaves != len(c.Parts[i]) {
		return nil, fmt.Errorf("shard: cached shard %d: subtree leaves do not match the partition", i)
	}
	*sh = ecoShard{frozen: ctree.Freeze(br.Root), reg: br.Registry, stats: br.Stats}
	return sh, nil
}

// RebuildOptions carries the local-only knobs of a rebuild — observation and
// cancellation, the two option fields that never live in the cache.
type RebuildOptions struct {
	// Trace, when non-nil, records the rebuild's phase spans (dirty,
	// rebuild, adopt, retain, restitch, finalize) with per-dirty-shard child
	// traces.
	Trace *obs.Trace
	// Ctx cancels the rebuild (merge loops and dispatch alike).
	Ctx context.Context
}

// Rebuild re-routes the cached instance under the edit script with the
// default dispatch policy and no tracing. See RebuildDispatch.
func (c *EcoCache) Rebuild(script *instio.EditScript) (*Result, error) {
	return c.RebuildDispatch(script, RebuildOptions{}, dispatch.Options{})
}

// RebuildDispatch is the incremental rebuild (see the file comment): apply
// the edit script, re-route the dirty shards through dispatch.Run, adopt the
// clean shards from the cache, re-stitch under the cached pilot contract.
// The result is a full sharded Result for the edited instance — quality
// metrics, per-shard attribution, dispatch report — plus EcoRebuilt/EcoReused
// recording what was actually re-routed, and a chained EcoCache.
func (c *EcoCache) RebuildDispatch(script *instio.EditScript, ropt RebuildOptions, dopt dispatch.Options) (*Result, error) {
	k := len(c.Parts)
	if k == 0 || len(c.shards) != k || c.Instance == nil {
		return nil, fmt.Errorf("shard: malformed eco cache (%d parts, %d shards)", k, len(c.shards))
	}
	tr := ropt.Trace

	// ---- dirty: apply the edits, derive the dirty shard set ----
	dirtyRgn := tr.Begin("dirty")
	var edited *ctree.Instance
	var rm *instio.Remap
	var newParts [][]int
	var dirtyIdx []int
	var removals bool
	if err := dispatch.Protect("dirty", func() error {
		var err error
		edited, rm, err = script.Apply(c.Instance)
		if err != nil {
			return err
		}
		newParts, dirtyIdx, removals, err = c.dirtySet(script, rm)
		return err
	}); err != nil {
		return nil, err
	}
	dirtyRgn.Attr("edits", float64(len(script.Edits))).Attr("shards", float64(len(dirtyIdx))).End()
	tr.Metric("eco_edits", float64(len(script.Edits)))
	tr.Metric("eco_dirty_shards", float64(len(dirtyIdx)))
	tr.Metric("eco_reused_shards", float64(k-len(dirtyIdx)))

	// Re-derive the sub-build and per-shard options exactly as the
	// from-scratch pipeline would for the edited instance.
	subOpt := c.Opt
	subOpt.Shards = 0
	subOpt.Pilot = false
	subOpt.Trace = nil
	subOpt.Ctx = ropt.Ctx
	if c.PilotOffsets != nil {
		subOpt.GroupOffsets = c.PilotOffsets
	}
	base, err := core.NewRegistryFromSnapshot(c.Base)
	if err != nil {
		return nil, err
	}
	shardOpt := deriveShardOpt(subOpt, k)

	// ---- rebuild: dirty shards only, through the dispatch coordinator ----
	m := len(dirtyIdx)
	rebuildRgn := tr.Begin("rebuild").Attr("shards", float64(m))
	dirtyParts := make([][]int, m)
	for j, i := range dirtyIdx {
		dirtyParts[j] = newParts[i]
	}
	shardTraces := make([]*obs.Trace, m)
	if tr != nil {
		for j, i := range dirtyIdx {
			shardTraces[j] = tr.Child("shard" + strconv.Itoa(i))
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
		pprof.Do(ctx, pprof.Labels("shard", strconv.Itoa(dirtyIdx[t.Index])), func(context.Context) {
			sub, err = core.BuildSubtree(edited, dirtyParts[t.Index], so, reg)
		})
		if err != nil {
			return nil, err
		}
		return shardOut{sub: sub, reg: reg}, nil
	})
	var runner dispatch.Runner = local
	if dopt.Remote != nil {
		rr, err := newRemoteShardRunner(dopt.Remote, edited, shardOpt, base, dirtyParts, local, dopt.Faults)
		if err != nil {
			return nil, err
		}
		runner = rr
	}
	shardDopt := dopt
	shardDopt.Phase = "shard"
	shardDopt.Trace = tr
	outs, disp, err := dispatch.Run(ropt.Ctx, m, runner, shardDopt)
	for _, st := range shardTraces {
		st.Close()
	}
	rebuildRgn.End()
	if err != nil {
		return nil, err
	}

	// ---- adopt: thaw the clean shards from the cache ----
	// Each clean shard thaws a fresh copy of its frozen subtree, with leaf
	// identity carried onto the edited instance by its pending renumbering
	// composed with this script's. The snapshot itself is never touched, so
	// the cache stays reusable, and the chained cache shares it.
	subs := make([]*core.Subtree, k)
	regs := make([]*core.Registry, k)
	for j, i := range dirtyIdx {
		so := outs[j].(shardOut)
		subs[i], regs[i] = so.sub, so.reg
	}
	chain := make([]ecoShard, k)
	adoptRgn := tr.Begin("adopt").Attr("shards", float64(k-m))
	if err := dispatch.Protect("adopt", func() error {
		for i := 0; i < k; i++ {
			if subs[i] != nil {
				continue // dirty, freshly built
			}
			sh, err := c.unseal(i)
			if err != nil {
				return err
			}
			reg, err := core.NewRegistryFromSnapshot(sh.reg)
			if err != nil {
				return fmt.Errorf("shard: cached shard %d: %w", i, err)
			}
			chain[i] = *sh
			chain[i].remap = composeRemap(sh.remap, rm.OldToNew)
			subs[i] = &core.Subtree{Root: sh.frozen.Thaw(edited, chain[i].remap), Stats: sh.stats}
			regs[i] = reg
		}
		return nil
	}); err != nil {
		return nil, err
	}
	adoptRgn.End()
	roots := make([]*ctree.Node, k)
	for i, s := range subs {
		roots[i] = s.Root
	}

	// Chain the contract BEFORE the stitch mutates the roots, exactly like
	// the retaining build: only the dirty shards are frozen anew.
	retainRgn := tr.Begin("retain")
	if err := dispatch.Protect("retain", func() error {
		for _, i := range dirtyIdx {
			chain[i] = retainShard(subs[i], regs[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	retainRgn.End()

	// ---- restitch: all roots under the cached pilot contract ----
	topReg := base
	if k == 1 {
		topReg = regs[0]
	}
	stitchRgn := tr.Begin("restitch")
	stitchOpt := subOpt
	if tr != nil {
		stitchOpt.Trace = tr.Child("stitch")
	}
	var top *core.Subtree
	err = dispatch.Protect("stitch", func() error {
		var err error
		top, err = core.MergeRoots(edited, roots, stitchOpt, topReg)
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
			Instance: edited,
			Root:     top.Root,
			Options:  c.Opt,
		},
		Shards:       make([]ShardInfo, k),
		StitchStats:  top.Stats,
		Parts:        newParts,
		PilotOffsets: c.PilotOffsets,
		PilotSinks:   c.PilotSinks,
		Trace:        tr,
		Dispatch:     disp,
		EcoRebuilt:   dirtyIdx,
		EcoReused:    k - m,
	}
	if err := dispatch.Protect("finalize", func() error {
		return finalizeResult(res, edited, subs, roots, newParts, top, base, core.Stats{})
	}); err != nil {
		return nil, err
	}
	finRgn.End()

	res.Eco = &EcoCache{
		Instance:     edited,
		Opt:          c.Opt,
		Parts:        newParts,
		Base:         c.Base,
		PilotOffsets: c.PilotOffsets,
		PilotSinks:   c.PilotSinks,
		shards:       chain,
	}
	if !removals {
		// Sink identity survived the edits (adds extended it densely), so
		// the patched index is exactly the edited instance's — hand it to
		// the chained cache instead of rebuilding it there. After removals
		// ids shifted and the index is wrong for either cache; drop it.
		res.Eco.idx = c.idx
	}
	// The walked index was mutated by this rebuild; the next use of THIS
	// cache must re-derive it (dirtySet rebuilds a nil index lazily).
	c.idx = nil
	return res, nil
}

// dirtySet walks the edit script and derives the dirty shards and the edited
// partition. Moves, reloads and removals dirty the shard owning the targeted
// sink; an addition is assigned to the shard of its nearest live sink, found
// through the lazily built, incrementally patched spatial index (removed
// sinks are deleted from it before later additions query, moved sinks are
// re-filed at their new placement, and each added sink is filed immediately
// so a subsequent addition can cluster onto it). Returns the partition in
// edited-instance sink ids, the ascending dirty shard indices, and whether
// the script removed any sink.
func (c *EcoCache) dirtySet(script *instio.EditScript, rm *instio.Remap) (newParts [][]int, dirtyIdx []int, removals bool, err error) {
	k := len(c.Parts)
	nOld := len(c.Instance.Sinks)
	if c.sinkShard == nil {
		c.sinkShard = make([]int, nOld)
		for i, p := range c.Parts {
			for _, s := range p {
				c.sinkShard[s] = i
			}
		}
	}
	if c.idx == nil {
		boxes := make([]geom.Rect, nOld)
		for i := range c.Instance.Sinks {
			boxes[i] = geom.RectFromPoint(c.Instance.Sinks[i].Loc)
		}
		c.idx = spatial.New(spatial.DensityCell(boxes))
		c.idx.InsertAll(boxes)
	}

	dirty := make([]bool, k)
	var addShard []int // shard assigned to each addition, in script order
	nextID := nOld     // index ids for additions: dense continuation of the old ids
	for _, e := range script.Edits {
		switch e.Op {
		case instio.OpMove:
			dirty[c.sinkShard[e.Sink]] = true
			c.idx.Delete(e.Sink)
			c.idx.Insert(e.Sink, geom.RectFromPoint(e.Loc))
		case instio.OpReload:
			dirty[c.sinkShard[e.Sink]] = true
		case instio.OpRemove:
			dirty[c.sinkShard[e.Sink]] = true
			c.idx.Delete(e.Sink)
			removals = true
		case instio.OpAdd:
			q := geom.RectFromPoint(e.Loc)
			nb, _, ok := c.idx.Nearest(q, nil, func(id int) float64 {
				return geom.DistRR(q, c.idx.Box(id))
			})
			if !ok {
				return nil, nil, false, fmt.Errorf("%w (no surviving sink to anchor an added one)", ErrFullBuild)
			}
			sh := 0
			if nb < nOld {
				sh = c.sinkShard[nb]
			} else {
				sh = addShard[nb-nOld]
			}
			dirty[sh] = true
			addShard = append(addShard, sh)
			c.idx.Insert(nextID, q)
			nextID++
		}
	}

	// The edited partition: survivors keep their cached shard (a moved sink
	// stays where it was filed — the quality envelope, not the partition,
	// owns placement quality), additions join their assigned shard.
	newParts = make([][]int, k)
	for i, p := range c.Parts {
		np := make([]int, 0, len(p))
		for _, s := range p {
			if ns := rm.OldToNew[s]; ns >= 0 {
				np = append(np, ns)
			}
		}
		newParts[i] = np
	}
	for j, sh := range addShard {
		newParts[sh] = append(newParts[sh], rm.Added[j])
	}
	for i := range newParts {
		if len(newParts[i]) == 0 {
			return nil, nil, false, fmt.Errorf("%w (edits emptied shard %d)", ErrFullBuild, i)
		}
		if dirty[i] {
			dirtyIdx = append(dirtyIdx, i)
		}
	}
	sort.Ints(dirtyIdx)
	return newParts, dirtyIdx, removals, nil
}

// composeRemap carries a pending leaf renumbering forward through an edit
// script's old→new map: the result maps the frozen subtree's id space directly
// onto the edited instance (-1 = removed along the way). A nil pending map is
// the identity, so the script's own map passes through unchanged.
func composeRemap(pending, oldToNew []int) []int {
	if pending == nil {
		return oldToNew
	}
	out := make([]int, len(pending))
	for o, m := range pending {
		if m >= 0 {
			out[o] = oldToNew[m]
		} else {
			out[o] = -1
		}
	}
	return out
}

// Marshal serializes the cache for a later process (astdme -cache / -eco).
// Every frozen shard is thawed into the instance's own id space and encoded,
// so the disk format stays exactly the retained build's; the encode cost is
// paid once at the process boundary instead of on every in-process hop.
func (c *EcoCache) Marshal() ([]byte, error) {
	blobs := make([][]byte, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		if sh.frozen == nil {
			blobs[i] = sh.sealed
			continue
		}
		root := sh.frozen.Thaw(c.Instance, sh.remap)
		br := wire.BuildResult{Root: root, Stats: sh.stats, Wirelength: root.Wirelength(), Registry: sh.reg}
		var err error
		if blobs[i], err = br.Encode(); err != nil {
			return nil, fmt.Errorf("shard: cached shard %d: %w", i, err)
		}
	}
	opt := c.Opt
	opt.Shards = 0
	opt.Pilot = false
	wc := &wire.Cache{
		Shards:     len(c.Parts),
		Pilot:      c.Opt.Pilot,
		Opt:        stripLocalOnly(opt),
		Instance:   c.Instance,
		Parts:      c.Parts,
		Base:       c.Base,
		Offsets:    c.PilotOffsets,
		PilotSinks: c.PilotSinks,
		Blobs:      blobs,
	}
	return wc.Encode()
}

// UnmarshalEcoCache reconstructs a cache serialized by Marshal, through the
// wire layer's defensive validation (partition cover, registry forest,
// option ranges). The shard blobs stay individually sealed; a rebuild decodes
// each through the full result validation the first time it adopts it.
func UnmarshalEcoCache(data []byte) (*EcoCache, error) {
	wc, err := wire.DecodeCache(data)
	if err != nil {
		return nil, err
	}
	opt := wc.Opt
	opt.Shards = wc.Shards
	opt.Pilot = wc.Pilot
	shards := make([]ecoShard, len(wc.Blobs))
	for i, b := range wc.Blobs {
		shards[i].sealed = b
	}
	return &EcoCache{
		Instance:     wc.Instance,
		Opt:          opt,
		Parts:        wc.Parts,
		Base:         wc.Base,
		PilotOffsets: wc.Offsets,
		PilotSinks:   wc.PilotSinks,
		shards:       shards,
	}, nil
}
