package wire

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctree"
)

// magicCache tags a persisted eco contract (shard.EcoCache's serialized
// form): everything a later process needs to rebuild an edited instance
// incrementally — the routed instance, the sub-build options, the partition,
// the frozen base registry, the pilot offset contract and the per-shard
// pre-stitch subtree encodings (each itself a sealed result message).
var magicCache = [4]byte{'A', 'S', 'T', 'C'}

// Cache is the serialization container for an incremental-rebuild contract.
// It deliberately carries only core/ctree values so the codec stays below
// the shard package (which converts to and from its EcoCache).
type Cache struct {
	// Shards is the cached partition's shard count (== len(Parts) ==
	// len(Blobs)); Pilot records whether the pilot offset pass produced
	// Offsets. Both travel outside Opt: encodeOptions rejects sharding
	// options by design (a work unit is always an unsharded sub-build).
	Shards int
	Pilot  bool
	// Opt is the build's option set with the sharding and local-only fields
	// stripped (Shards/Pilot live above; Trace/Ctx never travel).
	Opt      core.Options
	Instance *ctree.Instance
	Parts    [][]int
	// Base is the frozen base registry every shard cloned (pilot offsets
	// pre-registered); Offsets is the pilot contract itself (nil when the
	// pilot was off); PilotSinks its routed sample size.
	Base       core.RegistrySnapshot
	Offsets    []float64
	PilotSinks int
	// Blobs[i] is shard i's pre-stitch subtree as a sealed result message
	// (the Encode output of a BuildResult), decodable against Instance.
	Blobs [][]byte
}

// Encode serializes the cache. Like every wire message it is versioned,
// magic-tagged and sealed; the per-shard blobs keep their own seals, so
// a cache survives exactly one level of nesting without re-hashing payloads.
func (c *Cache) Encode() ([]byte, error) {
	if c.Instance == nil {
		return nil, fmt.Errorf("wire: cache without instance")
	}
	if c.Shards != len(c.Parts) || c.Shards != len(c.Blobs) {
		return nil, fmt.Errorf("wire: cache with %d shards, %d parts, %d blobs",
			c.Shards, len(c.Parts), len(c.Blobs))
	}
	size := headerLen + uvLen(uint64(c.Shards)) + 1 + optionsLen(c.Opt) + snapshotLen(c.Base) +
		instanceLen(c.Instance) + 1 + uvLen(uint64(len(c.Offsets))) + 8*len(c.Offsets) +
		ivLen(int64(c.PilotSinks)) + sealLen
	for _, p := range c.Parts {
		size += uvLen(uint64(len(p)))
		for _, id := range p {
			size += uvLen(uint64(id))
		}
	}
	for _, b := range c.Blobs {
		size += uvLen(uint64(len(b))) + len(b)
	}
	w := newWriter(magicCache, size)
	w.uv(uint64(c.Shards))
	w.bool(c.Pilot)
	if err := encodeOptions(w, c.Opt); err != nil {
		return nil, err
	}
	encodeSnapshot(w, c.Base)
	encodeInstance(w, c.Instance)
	for _, p := range c.Parts {
		w.uv(uint64(len(p)))
		for _, id := range p {
			if id < 0 || id >= len(c.Instance.Sinks) {
				return nil, fmt.Errorf("wire: cache part sink id %d out of range", id)
			}
			w.uv(uint64(id))
		}
	}
	w.bool(c.Offsets != nil)
	if c.Offsets != nil {
		w.uv(uint64(len(c.Offsets)))
		for _, v := range c.Offsets {
			w.f64(v)
		}
	}
	w.iv(int64(c.PilotSinks))
	for _, b := range c.Blobs {
		w.uv(uint64(len(b)))
		w.raw(b)
	}
	return w.seal(), nil
}

// DecodeCache parses and validates a cache: counts against the payload, the
// partition as an exact cover of the instance's sinks (every id in exactly
// one non-empty part), the pilot offsets against the group count, and the
// registry snapshot through the executor's forest validation. The shard
// blobs are checked for framing only; each is a result message of its own,
// which the caller decodes with DecodeResult (shard.UnmarshalEcoCache
// decodes them all at open).
func DecodeCache(data []byte) (*Cache, error) {
	r, err := open(data, magicCache)
	if err != nil {
		return nil, err
	}
	c := &Cache{Shards: int(r.uv())}
	if r.err != nil {
		return nil, r.err
	}
	if c.Shards <= 0 || c.Shards > r.remaining() {
		return nil, fmt.Errorf("wire: cache shard count %d exceeds payload", c.Shards)
	}
	c.Pilot = r.bool()
	c.Opt, err = decodeOptions(r)
	if err != nil {
		return nil, err
	}
	c.Base = decodeSnapshot(r)
	c.Instance, err = decodeInstance(r)
	if err != nil {
		return nil, err
	}
	n := len(c.Instance.Sinks)
	if c.Shards > n {
		return nil, fmt.Errorf("wire: cache with %d shards over %d sinks", c.Shards, n)
	}
	seen := make([]bool, n)
	covered := 0
	c.Parts = make([][]int, c.Shards)
	for i := range c.Parts {
		m := int(r.uv())
		if r.err != nil {
			return nil, r.err
		}
		if m <= 0 || m > n-covered {
			return nil, fmt.Errorf("wire: cache part %d with %d sinks does not fit the instance", i, m)
		}
		c.Parts[i] = make([]int, m)
		for j := range c.Parts[i] {
			id := int(r.uv())
			if r.err != nil {
				return nil, r.err
			}
			if id < 0 || id >= n {
				return nil, fmt.Errorf("wire: cache part sink id %d out of range", id)
			}
			if seen[id] {
				return nil, fmt.Errorf("wire: cache partition files sink %d twice", id)
			}
			seen[id] = true
			c.Parts[i][j] = id
		}
		covered += m
	}
	if covered != n {
		return nil, fmt.Errorf("wire: cache partition covers %d of %d sinks", covered, n)
	}
	if r.bool() {
		ng := int(r.uv())
		if r.err != nil {
			return nil, r.err
		}
		if ng != c.Instance.NumGroups {
			return nil, fmt.Errorf("wire: cache pilot offsets over %d groups for instance with %d",
				ng, c.Instance.NumGroups)
		}
		c.Offsets = make([]float64, ng)
		for i := range c.Offsets {
			c.Offsets[i] = r.f64()
		}
	}
	c.PilotSinks = int(r.iv())
	if r.err == nil && c.PilotSinks < 0 {
		return nil, fmt.Errorf("wire: cache with %d pilot sinks", c.PilotSinks)
	}
	c.Blobs = make([][]byte, c.Shards)
	for i := range c.Blobs {
		m := int(r.uv())
		if r.err != nil {
			return nil, r.err
		}
		if m <= 0 || m > r.remaining() {
			return nil, fmt.Errorf("wire: cache blob %d length %d exceeds payload", i, m)
		}
		c.Blobs[i] = append([]byte(nil), r.take(m)...)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if _, err := core.NewRegistryFromSnapshot(c.Base); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if len(c.Base.Parent) != c.Instance.NumGroups {
		return nil, fmt.Errorf("wire: cache registry over %d groups for instance with %d",
			len(c.Base.Parent), c.Instance.NumGroups)
	}
	return c, nil
}
