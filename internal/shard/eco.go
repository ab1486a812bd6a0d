package shard

// Incremental (ECO) rerouting. A retained sharded build (BuildEco) leaves
// behind an EcoCache: the partition, the frozen base registry with the pilot
// offset contract baked in, and every shard's pre-stitch subtree frozen in
// memory (ctree.Frozen). Rebuild applies an instio edit script
// (move/reload/add/remove sinks) to the cached instance, derives the dirty
// shard set from the cached partition — an edited sink dirties the shard
// that owns it; an added sink dirties the shard of its nearest surviving
// neighbor, found through an incrementally patched spatial index over the
// sink placements — and hands ONLY the dirty shards to the from-scratch
// pipeline's own back half (routeShards, shard.go), whose dispatch.Run
// fan-out applies retry, hedging, panic containment and remote workers
// unchanged. Clean shards are adopted
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
	"sort"

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

// Rebuild re-routes the cached instance under the edit script with zero
// dispatch options and no tracing. See RebuildDispatch.
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
	// dirtySet patches c.idx in place, so past this point the index no longer
	// describes c.Instance whatever the outcome: drop it on every exit (the
	// next use re-derives a nil index lazily). A successful rebuild hands it
	// to the chained cache first when sink identity survived.
	defer func() { c.idx = nil }()
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

	// Re-derive the sub-build options exactly as the from-scratch pipeline
	// does for the edited instance, under the cached pilot contract.
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
	res := &Result{
		Result:       core.Result{Instance: edited, Options: c.Opt},
		Parts:        newParts,
		PilotOffsets: c.PilotOffsets,
		PilotSinks:   c.PilotSinks,
		Trace:        tr,
		EcoRebuilt:   dirtyIdx,
		EcoReused:    k - len(dirtyIdx),
	}
	if err := routeShards(res, subOpt, base, dirtyIdx, c, rm.OldToNew, true, dopt); err != nil {
		return nil, err
	}
	if !removals {
		// Sink identity survived the edits (adds extended it densely), so
		// the patched index is exactly the edited instance's — hand it to
		// the chained cache instead of rebuilding it there. After removals
		// ids shifted and the index is wrong for either cache.
		res.Eco.idx = c.idx
	}
	return res, nil
}

// dirtySet walks the edit script and derives the dirty shards and the edited
// partition. Moves, reloads and removals dirty the shard owning the targeted
// sink; an addition is assigned to the shard of its nearest other live sink
// by Manhattan distance (smallest id on ties), found through the lazily
// built, incrementally patched spatial index: removed sinks are deleted from
// it before later additions query, moved sinks are re-filed at their new
// placement, and each added sink is filed first and then asks NearestBox
// for its neighbor, so a subsequent addition can cluster onto it. Returns
// the partition in edited-instance sink ids, the ascending dirty shard
// indices, and whether the script removed any sink.
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
			c.idx.Insert(nextID, geom.RectFromPoint(e.Loc))
			nb, _, ok := c.idx.NearestBox(nextID)
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

// stripLocalOnly clears the option fields a cache must not carry:
// observation and cancellation stay with the caller.
func stripLocalOnly(opt core.Options) core.Options {
	opt.Trace = nil
	opt.Ctx = nil
	return opt
}

// Marshal serializes the cache for a later process (astdme -cache / -eco).
// Every frozen shard is thawed into the instance's own id space and encoded,
// so the disk format stays exactly the retained build's; the encode cost is
// paid once at the process boundary instead of on every in-process hop.
func (c *EcoCache) Marshal() ([]byte, error) {
	blobs := make([][]byte, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		root := sh.frozen.Thaw(c.Instance, sh.remap)
		br := wire.BuildResult{Root: root, Stats: sh.stats, Registry: sh.reg}
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
// option ranges). Every shard blob is decoded through the full result
// validation and frozen here. The blobs crossed a process boundary, so each
// shard's leaves must also be exactly its cached part, each sink once: a
// mismatch would otherwise surface as a corrupt tree three layers down. A
// cache another build wrote fails with an error wrapping wire.ErrVersion
// that says how to rewrite it.
func UnmarshalEcoCache(data []byte) (*EcoCache, error) {
	wc, err := wire.DecodeCache(data)
	if errors.Is(err, wire.ErrVersion) {
		return nil, fmt.Errorf("shard: the eco cache was written by another build (%w); rerun the retained build (astdme -shards N -cache) to rewrite it", err)
	}
	if err != nil {
		return nil, err
	}
	opt := wc.Opt
	opt.Shards = wc.Shards
	opt.Pilot = wc.Pilot
	shards := make([]ecoShard, len(wc.Blobs))
	// want marks the current part's sinks; a shard whose leaves match its
	// part clears every mark it set, so one slice serves all shards.
	want := make([]bool, len(wc.Instance.Sinks))
	for i, b := range wc.Blobs {
		br, err := wire.DecodeResult(b, wc.Instance)
		if err != nil {
			return nil, fmt.Errorf("shard: cached shard %d: %w", i, err)
		}
		for _, s := range wc.Parts[i] {
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
		if stray || leaves != len(wc.Parts[i]) {
			return nil, fmt.Errorf("shard: cached shard %d: subtree leaves do not match the partition", i)
		}
		shards[i] = ecoShard{frozen: ctree.Freeze(br.Root), reg: br.Registry, stats: br.Stats}
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
