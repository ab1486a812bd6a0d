package shard

// Incremental (ECO) rerouting. A retained sharded build (BuildEco) leaves
// behind an EcoCache: the partition, the build's options, the pilot offset
// contract, and every shard's pre-stitch subtree frozen in memory
// (ctree.Frozen). Rebuild applies an instio edit script
// (move/reload/add/remove sinks) to the cached instance, derives the dirty
// shard set from the cached partition — an edited sink dirties the shard
// that owns it; an added sink dirties the shard of its nearest surviving
// neighbor, found through a spatial index over the sink placements that
// files each sink under a stable slot and survives every hop, so a hop
// patches only the slots its edits touch — and hands ONLY the dirty shards
// to the from-scratch pipeline's own back half (routeShards, shard.go),
// whose dispatch.Run fan-out applies retry, hedging, panic containment and
// remote workers unchanged. While the dirty shards route, the clean ones
// are adopted from the cache on one goroutine by thawing a fresh copy of
// their frozen subtrees, one slab copy each, with each leaf carried onto
// its sink id in the edited instance; no hop touches the wire codec. The
// base registry is not stored: core.NewRegistry of the cached options and
// offsets rebuilds it, bitwise the one the from-scratch build handed its
// shards, and all roots are re-stitched with MergeRoots against it, i.e.
// under the cached pilot contract, so the rebuilt tree keeps the
// from-scratch build's inter-group alignment (seam skew at float noise)
// without re-running the pilot.
//
// The contract is sound because a sub-build is a pure function of
// (instance, sink subset, options, frozen registry): a clean shard's sinks
// are untouched by the edit script, its options and registry are cached, so
// the thawed subtree is bitwise the subtree a from-scratch build of the
// edited instance would produce for that shard. Edits keep the group count,
// so the registry those options and offsets make is the cached build's.
// What the contract cannot absorb — edits that empty a shard or leave no
// sink to anchor an addition — surfaces as ErrFullBuild; edits that empty a
// group are rejected by EditScript.Apply outright. Every Rebuild result
// chains: it carries a new EcoCache for the edited instance, so ECO
// sequences compound without ever paying a full build.

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
// Rebuild repeatedly (a rebuild consumes the cache's dirty-set scratch, and
// the next derives it afresh), but not from concurrent goroutines.
type EcoCache struct {
	// Instance is the routed instance the contract describes.
	Instance *ctree.Instance
	// Opt is the build's option set (Shards/Pilot included) with the
	// local-only fields stripped; rebuilds re-derive the sub-build and
	// per-shard options from it exactly as the from-scratch pipeline does.
	Opt core.Options
	// Parts is the cached partition: Parts[i] lists shard i's sink IDs.
	Parts [][]int
	// PilotOffsets is the offset contract (nil when the pilot was off),
	// which the base registry every shard cloned pre-registers (see
	// subOptions), and PilotSinks its routed sample size.
	PilotOffsets []float64
	PilotSinks   int
	// shards[i] is shard i's retained pre-stitch build (see ecoShard).
	shards []ecoShard

	// Dirty-set scratch, derived on first use (see dirtySet): a spatial
	// index over the sink placements that files each sink under a stable
	// slot, slot[s] the slot of sink s of Instance, and slotShard[t] the
	// shard owning slot t. Survivors keep their slots across hops and an
	// addition takes the next fresh one, so slot order is sink-id order. A
	// successful rebuild hands all three to the chained cache unless the
	// slots have outgrown the live sinks (see handOff); every exit drops
	// them here.
	idx       *spatial.Index
	slot      []int32
	slotShard []int32
}

// slotSlack is how far the slots may outnumber twice the live sinks before
// a chained cache drops its dirty-set index and re-derives a compact one.
const slotSlack = 64

// ecoShard is one shard's retained pre-stitch build: the subtree frozen in
// memory, its leaves' current sink ids, and the registry state and stats the
// build committed. A rebuild adopts a clean shard by thawing a fresh copy of
// frozen and hands the same snapshot to the chained cache, carrying leaves
// through the edit script's renumbering instead of rewriting the subtree.
type ecoShard struct {
	frozen *ctree.Frozen
	// leaves[j] is the sink id in the cache's Instance of frozen's j-th leaf
	// in slab order (ctree.Frozen.Leaves); nil when that is the frozen id.
	leaves []int32
	reg    core.RegistrySnapshot
	stats  core.Stats
}

// carry returns the shard's leaves after an edit script that renumbered the
// survivors by oldToNew. Only a clean shard is carried, and a clean shard
// lost no sink, so every leaf has an image.
func (sh *ecoShard) carry(oldToNew []int) []int32 {
	src := sh.leaves
	if src == nil {
		src = sh.frozen.Leaves()
	}
	out := make([]int32, len(src))
	for j, s := range src {
		out[j] = int32(oldToNew[s])
	}
	return out
}

// RebuildOptions carries the local-only knobs of a rebuild — observation and
// cancellation, the two option fields that never live in the cache.
type RebuildOptions struct {
	// Trace, when non-nil, records the rebuild's phase spans (dirty,
	// rebuild, retain, restitch, finalize, embed) with per-dirty-shard
	// child traces and an "adopt" child trace for the clean-shard thaw,
	// which overlaps the rebuild span.
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
	// dirtySet patches the dirty-set index and slotShard in place, so past
	// this point they no longer describe c.Instance whatever the outcome:
	// drop them on every exit (the next use re-derives them). A successful
	// rebuild hands them to the chained cache first.
	defer func() { c.idx, c.slot, c.slotShard = nil, nil, nil }()
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

	subOpt := c.subOptions()
	subOpt.Ctx = ropt.Ctx
	base, err := core.NewRegistry(edited, subOpt)
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
	var oldToNew []int // nil: no survivor was renumbered
	if removals {
		oldToNew = rm.OldToNew
	}
	if err := routeShards(res, subOpt, base, dirtyIdx, c, oldToNew, true, dopt); err != nil {
		return nil, err
	}
	c.handOff(res.Eco, rm)
	return res, nil
}

// subOptions re-derives the sub-build options exactly as the from-scratch
// pipeline does, under the cached pilot contract: core.NewRegistry of them
// is the base registry the cached build handed its shards.
func (c *EcoCache) subOptions() core.Options {
	opt := stripLocalOnly(c.Opt)
	opt.Shards = 0
	opt.Pilot = false
	if c.PilotOffsets != nil {
		opt.GroupOffsets = c.PilotOffsets
	}
	return opt
}

// handOff gives the dirty-set index this rebuild's edit walk patched to the
// chained cache next, with slotShard and next's slot map: survivors keep
// their slots through rm.OldToNew, and additions hold the fresh slots the
// walk gave them in script order. Once the slots outnumber twice the live
// sinks by more than slotSlack, next re-derives a compact index on first
// use instead, so the per-slot tables stay O(n).
func (c *EcoCache) handOff(next *EcoCache, rm *instio.Remap) {
	live := len(next.Instance.Sinks)
	if len(c.slotShard) > 2*live+slotSlack {
		return
	}
	slot := make([]int32, live)
	for old, s := range rm.OldToNew {
		if s >= 0 {
			slot[s] = c.slot[old]
		}
	}
	first := len(c.slotShard) - len(rm.Added)
	for j, s := range rm.Added {
		slot[s] = int32(first + j)
	}
	next.idx, next.slot, next.slotShard = c.idx, slot, c.slotShard
}

// dirtySet walks the edit script and derives the dirty shards and the edited
// partition. Moves, reloads and removals dirty the shard owning the targeted
// sink; an addition is assigned to the shard of its nearest other live sink
// by Manhattan distance (smallest id on ties), found through the dirty-set
// index, which files each sink under its slot: removed sinks are deleted
// from it before later additions query, moved sinks are re-filed at their
// new placement, and each added sink is filed under the next fresh slot
// first and then asks NearestBox for its neighbor, so a subsequent addition
// can cluster onto it. Slot order is sink-id order (survivors keep their
// relative order and additions follow them in script order), so the
// smallest-slot tie-break is the smallest-id one. Returns the partition in
// edited-instance sink ids, the ascending dirty shard indices, and whether
// the script removed any sink.
func (c *EcoCache) dirtySet(script *instio.EditScript, rm *instio.Remap) (newParts [][]int, dirtyIdx []int, removals bool, err error) {
	k := len(c.Parts)
	if c.idx == nil {
		n := len(c.Instance.Sinks)
		c.slot, c.slotShard = make([]int32, n), make([]int32, n)
		for i, p := range c.Parts {
			for _, s := range p {
				c.slotShard[s] = int32(i)
			}
		}
		boxes := make([]geom.Rect, n)
		for s := range c.Instance.Sinks {
			c.slot[s] = int32(s)
			boxes[s] = geom.RectFromPoint(c.Instance.Sinks[s].Loc)
		}
		c.idx = spatial.New(spatial.DensityCell(boxes))
		c.idx.InsertAll(boxes)
	}

	dirty := make([]bool, k)
	var addShard []int32 // shard assigned to each addition, in script order
	for _, e := range script.Edits {
		if e.Op == instio.OpAdd {
			t := len(c.slotShard)
			c.idx.Insert(t, geom.RectFromPoint(e.Loc))
			nb, _, ok := c.idx.NearestBox(t)
			if !ok {
				return nil, nil, false, fmt.Errorf("%w (no surviving sink to anchor an added one)", ErrFullBuild)
			}
			sh := c.slotShard[nb]
			dirty[sh] = true
			c.slotShard = append(c.slotShard, sh)
			addShard = append(addShard, sh)
			continue
		}
		t := int(c.slot[e.Sink])
		dirty[c.slotShard[t]] = true
		switch e.Op {
		case instio.OpMove:
			c.idx.Insert(t, geom.RectFromPoint(e.Loc))
		case instio.OpRemove:
			c.idx.Delete(t)
			removals = true
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
		root := sh.frozen.Thaw(c.Instance, sh.leaves)
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
		Offsets:    c.PilotOffsets,
		PilotSinks: c.PilotSinks,
		Blobs:      blobs,
	}
	return wc.Encode()
}

// UnmarshalEcoCache reconstructs a cache serialized by Marshal, through the
// wire layer's defensive validation (partition cover, option ranges). The
// cached options and pilot offsets must make the base registry a rebuild
// routes against (core.NewRegistry validates them: finite offsets, entry 0
// zero), so a cache that breaks the offset contract fails here, not at its
// first rebuild. Every shard blob is decoded through the full result
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
	c := &EcoCache{
		Instance:     wc.Instance,
		Opt:          opt,
		Parts:        wc.Parts,
		PilotOffsets: wc.Offsets,
		PilotSinks:   wc.PilotSinks,
		shards:       make([]ecoShard, len(wc.Blobs)),
	}
	if _, err := core.NewRegistry(c.Instance, c.subOptions()); err != nil {
		return nil, fmt.Errorf("shard: eco cache offset contract: %w", err)
	}
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
		c.shards[i] = ecoShard{frozen: ctree.Freeze(br.Root), reg: br.Registry, stats: br.Stats}
	}
	return c, nil
}
