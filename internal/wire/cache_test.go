package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
)

// buildCache constructs a realistic cache container: a grouped instance
// split into two parts, a registry with pilot offsets pre-registered, and
// per-part subtree blobs produced by the worker-side executor.
func buildCache(t testing.TB) *Cache {
	t.Helper()
	in := bench.Intermingled(bench.Small(120, 7), 3, 11)
	opt := core.Options{IntraSkewBound: 2, GroupOffsets: []float64{0, 1.5, -0.25}}
	reg, err := core.NewRegistry(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][]int{{}, {}}
	for i := range in.Sinks {
		parts[i%2] = append(parts[i%2], i)
	}
	blobs := make([][]byte, 2)
	for i, p := range parts {
		br, err := Execute(unitOf(in, KindBuild, p, opt, reg))
		if err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = br.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	return &Cache{
		Shards:     2,
		Pilot:      true,
		Opt:        opt,
		Instance:   in,
		Parts:      parts,
		Base:       reg.Snapshot(),
		Offsets:    []float64{0, 1.5, -0.25},
		PilotSinks: 40,
		Blobs:      blobs,
	}
}

// TestCacheRoundTrip pins decode(encode(c)) == c field for field, including
// the nested (still individually sealed) shard blobs.
func TestCacheRoundTrip(t *testing.T) {
	c := buildCache(t)
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCache(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != c.Shards || got.Pilot != c.Pilot || got.PilotSinks != c.PilotSinks {
		t.Errorf("header: %d/%v/%d, want %d/%v/%d",
			got.Shards, got.Pilot, got.PilotSinks, c.Shards, c.Pilot, c.PilotSinks)
	}
	if !reflect.DeepEqual(got.Opt, c.Opt) {
		t.Errorf("options did not round-trip:\n got %+v\nwant %+v", got.Opt, c.Opt)
	}
	if !reflect.DeepEqual(got.Parts, c.Parts) {
		t.Error("partition did not round-trip")
	}
	if !reflect.DeepEqual(got.Base, c.Base) {
		t.Error("registry snapshot did not round-trip")
	}
	if !reflect.DeepEqual(got.Offsets, c.Offsets) {
		t.Errorf("offsets %v, want %v", got.Offsets, c.Offsets)
	}
	if !reflect.DeepEqual(got.Instance.Sinks, c.Instance.Sinks) {
		t.Error("instance did not round-trip")
	}
	for i := range c.Blobs {
		if _, err := DecodeResult(got.Blobs[i], got.Instance); err != nil {
			t.Errorf("blob %d no longer decodes: %v", i, err)
		}
	}
}

// TestCacheEncodeRejects covers the writer-side invariants: count
// mismatches, missing instance, out-of-range partition ids.
func TestCacheEncodeRejects(t *testing.T) {
	c := buildCache(t)
	c.Shards = 3
	if _, err := c.Encode(); err == nil {
		t.Error("shard/part count mismatch accepted")
	}
	c = buildCache(t)
	c.Instance = nil
	if _, err := c.Encode(); err == nil {
		t.Error("missing instance accepted")
	}
	c = buildCache(t)
	c.Parts[0][0] = len(c.Instance.Sinks)
	if _, err := c.Encode(); err == nil {
		t.Error("out-of-range part id accepted")
	}
}

// TestCacheDecodeRejects covers the defensive reader: truncation anywhere,
// payload corruption, a partition that is not an exact cover, and offsets
// over the wrong group count all fail at decode — a cache never produces a
// silently wrong rebuild contract.
func TestCacheDecodeRejects(t *testing.T) {
	c := buildCache(t)
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, 16, len(data) / 2, len(data) - 1} {
		if _, err := DecodeCache(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for _, at := range []int{4, len(data) / 3, len(data) - 9} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x08
		if _, err := DecodeCache(bad); err == nil {
			t.Errorf("corruption at %d accepted", at)
		}
	}

	// A partition that drops a sink is rejected as an incomplete cover.
	c = buildCache(t)
	c.Parts[1] = c.Parts[1][:len(c.Parts[1])-1]
	if data, err = c.Encode(); err == nil {
		if _, err := DecodeCache(data); err == nil {
			t.Error("partition dropping a sink accepted")
		}
	}
	// Offsets over the wrong group count.
	c = buildCache(t)
	c.Offsets = []float64{0, 1}
	if data, err = c.Encode(); err == nil {
		if _, err := DecodeCache(data); err == nil {
			t.Error("offsets over wrong group count accepted")
		}
	}
}

// FuzzDecodeCache asserts the cache decoder's no-crash contract on
// arbitrary bytes, as given and resealed, and that whatever decodes
// re-encodes to bytes that decode and encode back to themselves. Its seeds'
// shard blobs hold compact leaves under a deferred root (sub-builds), under
// a resolved root (pilot patches), or the misplaced deferred records the
// result decoder rejects, and a decoded cache's blobs go through the result
// decoder against its instance, as an ECO rebuild opens them.
func FuzzDecodeCache(f *testing.F) {
	c := buildCache(f)
	seed, err := c.Encode()
	if err != nil {
		f.Fatal(err)
	}
	decode := func(b []byte) (interface{ Encode() ([]byte, error) }, error) { return DecodeCache(b) }
	seedRoundTrip(f, seed, decode)
	reg, err := core.NewRegistryFromSnapshot(c.Base)
	if err != nil {
		f.Fatal(err)
	}
	patched, misplaced := *c, *c
	patched.Blobs = make([][]byte, len(c.Parts))
	for i, p := range c.Parts {
		br, err := Execute(unitOf(c.Instance, KindPatch, p, c.Opt, reg))
		if err != nil {
			f.Fatal(err)
		}
		if br.Root.Def != nil {
			f.Fatal("a patch's root is still deferred")
		}
		if patched.Blobs[i], err = br.Encode(); err != nil {
			f.Fatal(err)
		}
	}
	misplaced.Blobs = nil
	for _, tc := range misplacedDeferrals(f, c.Instance) {
		if _, err := DecodeResult(tc.bad, c.Instance); err == nil {
			f.Fatalf("blob %q decodes", tc.name)
		}
		misplaced.Blobs = append(misplaced.Blobs, tc.bad)
	}
	for _, extra := range []*Cache{&patched, &misplaced} {
		data, err := extra.Encode()
		if err != nil {
			f.Fatal(err)
		}
		seedRoundTrip(f, data, decode)
		f.Add(data)
	}
	for i, b := range c.Blobs {
		br, err := DecodeResult(b, c.Instance)
		if err != nil {
			f.Fatal(err)
		}
		compact := 0
		br.Root.Visit(func(n *ctree.Node) {
			if isCompact(n) {
				compact++
			}
		})
		if compact != len(c.Parts[i]) {
			f.Fatalf("blob %d holds %d compact leaves of %d", i, compact, len(c.Parts[i]))
		}
	}
	f.Add(seed)
	f.Add([]byte("ASTC"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, resealed(data)} {
			c, err := DecodeCache(data) // must never panic
			if err != nil {
				continue
			}
			for _, b := range c.Blobs {
				DecodeResult(b, c.Instance) // must never panic
			}
			again, err := c.Encode()
			if err != nil {
				t.Fatalf("decoded cache fails to re-encode: %v", err)
			}
			c2, err := DecodeCache(again)
			if err != nil {
				t.Fatalf("re-encoded cache fails to decode: %v", err)
			}
			if third, err := c2.Encode(); err != nil || !bytes.Equal(third, again) {
				t.Fatalf("round-trip through re-encode diverged (err %v)", err)
			}
		}
	})
}
