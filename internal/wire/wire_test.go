package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/rctree"
)

// unitOf is the unit the sharded pipeline cuts from in: a sub-build over
// the sinks ids names (every sink when nil) under opt, against reg's state.
func unitOf(in *ctree.Instance, ids []int, opt core.Options, reg *core.Registry) *WorkUnit {
	return &WorkUnit{Sinks: in.SinkList(ids), NumGroups: in.NumGroups, Source: in.Source,
		Opt: opt, Registry: reg.Snapshot()}
}

// executeCommitted executes u and commits the root it returns as the pilot
// does on the coordinator: a one-root core.MergeRoots against the registry
// the result carries, which resolves a deferred root and registers its
// offsets. It makes the resolved-root results the fixtures send.
func executeCommitted(u *WorkUnit) (*BuildResult, error) {
	br, err := Execute(u)
	if err != nil {
		return nil, err
	}
	reg, err := core.NewRegistryFromSnapshot(br.Registry)
	if err != nil {
		return nil, err
	}
	top, err := core.MergeRoots([]*ctree.Node{br.Root}, u.NumGroups, u.Source, u.Opt, reg)
	if err != nil {
		return nil, err
	}
	var st core.Stats
	st.AddRun(br.Stats)
	st.AddRun(top.Stats)
	return &BuildResult{Root: top.Root, Stats: st, Registry: reg.Snapshot()}, nil
}

// buildWork constructs a realistic grouped work unit and the instance it
// was cut from: an intermingled 4-group instance, a sink subset, a registry
// with some committed state.
func buildWork(t *testing.T) (*WorkUnit, *ctree.Instance) {
	t.Helper()
	in := bench.Intermingled(bench.Small(300, 7), 4, 11)
	opt := core.Options{IntraSkewBound: 2}
	reg, err := core.NewRegistry(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, len(in.Sinks)/2)
	for i := 0; i < len(in.Sinks); i += 2 {
		ids = append(ids, i)
	}
	return unitOf(in, ids, opt, reg), in
}

func digestTree(t *testing.T, root *ctree.Node, in *ctree.Instance) uint64 {
	t.Helper()
	rep := eval.Analyze(root, in, core.DefaultModel(), in.Source)
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range rep.SinkDelay {
		bits := math.Float64bits(d)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestWorkUnitRoundTrip pins decode(encode(u)) == u for the fields that
// matter, including float bit patterns. Every options field wireLayout
// marks encoded is set to a non-default value, so a field dropped from the
// codec fails the comparison.
func TestWorkUnitRoundTrip(t *testing.T) {
	u, _ := buildWork(t)
	u.Opt = core.Options{
		Model:          rctree.NewElmore(0.3, 0.05),
		IntraSkewBound: 2,
		SingleGroup:    true,
		Pairer:         core.PairerScan,
		EndpointSplit:  true,
		GroupOffsets:   []float64{0, 1.5, -2, 4},
	}
	local := map[string]bool{}
	for _, f := range wireLayout.options {
		if name, ok := strings.CutSuffix(f, " local"); ok {
			local[name] = true
		}
	}
	ov := reflect.ValueOf(u.Opt)
	for i := 0; i < ov.NumField(); i++ {
		if name := ov.Type().Field(i).Name; !local[name] && ov.Field(i).IsZero() {
			t.Errorf("options field %s is left at its zero value", name)
		}
	}
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWork(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumGroups != u.NumGroups || got.Source != u.Source || !reflect.DeepEqual(got.Sinks, u.Sinks) {
		t.Error("sinks, group count or source did not round-trip")
	}
	if !reflect.DeepEqual(got.Registry, u.Registry) {
		t.Errorf("registry did not round-trip: %+v vs %+v", got.Registry, u.Registry)
	}
	if !reflect.DeepEqual(got.Opt, u.Opt) {
		t.Errorf("options did not round-trip:\n got %+v\nwant %+v", got.Opt, u.Opt)
	}
	// Determinism of the encoding itself: same value, same bytes.
	data2, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encoding is not deterministic")
	}
}

// TestResultRoundTripThroughFullBuild is the golden contract: a real
// BuildSubtree product — delay sets, deferred root, stats,
// registry — survives encode/decode bitwise. The decoded subtree then
// finishes the pipeline (MergeRoots + Embed) side by side with the
// original, and the two trees agree on wirelength bits, per-sink delay
// digest, and stats.
func TestResultRoundTripThroughFullBuild(t *testing.T) {
	u, in := buildWork(t)
	ref, err := Execute(u) // the worker-side path over the original structs
	if err != nil {
		t.Fatal(err)
	}
	data, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != ref.Stats {
		t.Errorf("stats did not round-trip:\n got %+v\nwant %+v", got.Stats, ref.Stats)
	}
	if gw, rw := math.Float64bits(got.Root.Wirelength()), math.Float64bits(ref.Root.Wirelength()); gw != rw {
		t.Errorf("wirelength bits differ: %x vs %x", gw, rw)
	}
	if !reflect.DeepEqual(got.Registry, ref.Registry) {
		t.Error("registry state did not round-trip")
	}

	// Drive both roots through the stitch and compare the final trees.
	finish := func(root *ctree.Node) (*core.Subtree, *core.Registry) {
		reg, err := core.NewRegistryFromSnapshot(got.Registry)
		if err != nil {
			t.Fatal(err)
		}
		top, err := core.MergeRoots([]*ctree.Node{root}, in.NumGroups, in.Source, u.Opt, reg)
		if err != nil {
			t.Fatal(err)
		}
		return top, reg
	}
	refTop, _ := finish(ref.Root)
	gotTop, _ := finish(got.Root)
	if refTop.Stats != gotTop.Stats {
		t.Errorf("stitch stats diverge: %+v vs %+v", gotTop.Stats, refTop.Stats)
	}
	refW := math.Float64bits(refTop.Root.Wirelength())
	gotW := math.Float64bits(gotTop.Root.Wirelength())
	if refW != gotW {
		t.Errorf("stitched wirelength bits differ: %x vs %x", gotW, refW)
	}
	if dr, dg := digestTree(t, refTop.Root, in), digestTree(t, gotTop.Root, in); dr != dg {
		t.Errorf("per-sink delay digests differ: %x vs %x", dg, dr)
	}
}

func TestDecodeRejectsVersionFlip(t *testing.T) {
	u, _ := buildWork(t)
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The version lives right after the 4-byte magic; flip it and reseal
	// (an honest version mismatch, not transit corruption).
	bad := append([]byte(nil), data[:len(data)-sealLen]...)
	bad[4] ^= 0xFF
	w := &writer{b: bad}
	if _, err := DecodeWork(w.seal()); err == nil {
		t.Fatal("flipped version accepted")
	}
}

// resealAt rewrites a sealed message's version field to v and recomputes
// its CRC-32C seal: the bytes another build would have written, had it
// sealed the way this one does.
func resealAt(data []byte, v uint16) []byte {
	w := &writer{b: append([]byte(nil), data[:4]...)}
	w.u16(v)
	w.raw(data[6 : len(data)-sealLen])
	return w.seal()
}

// asVersion6 rewrites a sealed message as Version 6 wrote it: the same body
// under version 6, sealed with an 8-byte FNV-64a trailer. Version 7 changed
// only the seal, so for a message whose nested messages (a cache's blobs)
// went through asVersion6 first, these are a Version 6 build's bytes.
func asVersion6(data []byte) []byte {
	body := append([]byte(nil), data[:len(data)-sealLen]...)
	binary.LittleEndian.PutUint16(body[4:], 6)
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

// TestOtherVersionFailsWithErrVersion: a work unit, a result and a cache
// written at any other Version fail their decoders with an error that
// wraps ErrVersion, so callers can tell a stale message from a corrupt one.
// That holds for the messages a Version 6 build wrote too, whose trailer
// this build does not check.
func TestOtherVersionFailsWithErrVersion(t *testing.T) {
	u, in := buildWork(t)
	work, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	br, err := Execute(u)
	if err != nil {
		t.Fatal(err)
	}
	result, err := br.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c := buildCache(t)
	cache, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range c.Blobs {
		c.Blobs[i] = asVersion6(b)
	}
	cache6, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name     string
		data, v6 []byte
		decode   func([]byte) error
	}{
		{"work unit", work, asVersion6(work), func(b []byte) error { _, err := DecodeWork(b); return err }},
		{"result", result, asVersion6(result), func(b []byte) error { _, err := DecodeResult(b, in); return err }},
		{"cache", cache, asVersion6(cache6), func(b []byte) error { _, err := DecodeCache(b); return err }},
	}
	for _, d := range decoders {
		if err := d.decode(d.v6); !errors.Is(err, ErrVersion) {
			t.Errorf("%s as Version 6 wrote it: err = %v, want ErrVersion", d.name, err)
		}
		if err := d.decode(resealAt(d.data, Version)); err != nil {
			t.Fatalf("%s resealed at this Version: %v", d.name, err)
		}
		for _, v := range []uint16{Version - 1, Version + 1} {
			if err := d.decode(resealAt(d.data, v)); !errors.Is(err, ErrVersion) {
				t.Errorf("%s at version %d: err = %v, want ErrVersion", d.name, v, err)
			}
		}
	}
}

// wireLayout pins what Version carries. stats is core.Stats as
// encodeStats writes it, field by field in declaration order: Stats travel
// by reflection, so editing a Stats field changes the wire layout without
// touching the codec. options is core.Options' field list, each field
// marked encoded (encodeOptions writes it) or local (it stays with the
// coordinator: a routeworker sees its zero value), so an option added or
// removed without a wire decision fails the test below.
var wireLayout = struct {
	version uint16
	stats   []string
	options []string
}{12, []string{
	"Merges varint", "SameGroup varint", "CrossGroup varint", "Shared varint",
	"Deferred varint", "GroupUnions varint", "MergeSnakes varint",
	"SneakEvents varint", "SneakWire f64", "SneakIters varint",
	"PairScans varint", "GridRebuilds.LiveDrop varint", "SneakUnresolved varint",
}, []string{
	"Model encoded", "IntraSkewBound encoded", "SingleGroup encoded",
	"Pairer encoded",
	"EndpointSplit encoded", "GroupOffsets encoded", "Shards local",
	"Pilot local", "Trace local", "Ctx local",
}}

// TestStatsLayoutPinnedToVersion fails when the wire layout of core.Stats
// or core.Options and Version move apart: a Stats field or encoded option
// change without a Version bump, an option whose wire role is not pinned,
// or a bump without re-pinning both layouts.
func TestStatsLayoutPinnedToVersion(t *testing.T) {
	var stats []string
	var flatten func(prefix string, typ reflect.Type)
	flatten = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Struct:
				flatten(prefix+f.Name+".", f.Type)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				stats = append(stats, prefix+f.Name+" varint")
			case reflect.Float64:
				stats = append(stats, prefix+f.Name+" f64")
			default:
				stats = append(stats, prefix+f.Name+" "+f.Type.Kind().String())
			}
		}
	}
	flatten("", reflect.TypeOf(core.Stats{}))
	role := map[string]string{}
	for _, f := range wireLayout.options {
		name, r, _ := strings.Cut(f, " ")
		role[name] = r
	}
	var options []string
	typ := reflect.TypeOf(core.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		r := role[name]
		if r == "" {
			r = "unpinned"
		}
		options = append(options, name+" "+r)
	}
	if Version != wireLayout.version || !slices.Equal(stats, wireLayout.stats) || !slices.Equal(options, wireLayout.options) {
		t.Fatalf("core.Stats travels field by field and core.Options by encodeOptions, so their fields are part of the wire layout:\n"+
			"  pinned: Version %d\n    stats   %v\n    options %v\n"+
			"  now:    Version %d\n    stats   %v\n    options %v\n"+
			"a Stats field or encoded option change needs a Version bump; every option is pinned encoded or local, and the pin moves with both",
			wireLayout.version, wireLayout.stats, wireLayout.options, Version, stats, options)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	u, _ := buildWork(t)
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{7, len(data) / 2, len(data) - 9, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := DecodeWork(bad); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		}
	}
	if _, err := DecodeWork(data[:len(data)/3]); err == nil {
		t.Error("truncated message accepted")
	}
	if _, err := DecodeWork(nil); err == nil {
		t.Error("empty message accepted")
	}
}

// TestDecodeWorkRejectsNonFinite: a work unit whose registry snapshot or
// scalar options hold a non-finite value fails to decode, so it never
// reaches a build.
func TestDecodeWorkRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(u *WorkUnit)
	}{
		{"NaN registry offset", func(u *WorkUnit) { u.Registry.Off[1] = math.NaN() }},
		{"+Inf registry offset", func(u *WorkUnit) { u.Registry.Off[2] = math.Inf(1) }},
		{"NaN IntraSkewBound", func(u *WorkUnit) { u.Opt.IntraSkewBound = math.NaN() }},
	} {
		u, _ := buildWork(t)
		tc.edit(u)
		data, err := u.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := DecodeWork(data); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestWorkCannotDecodeAsResult(t *testing.T) {
	u, in := buildWork(t)
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(data, in); err == nil {
		t.Fatal("work unit decoded as a result")
	}
}

func TestEncodeRejectsUnserializableOptions(t *testing.T) {
	u, _ := buildWork(t)
	u.Opt.Shards = 4
	if _, err := u.Encode(); err == nil {
		t.Error("nested Shards encoded")
	}
	u, _ = buildWork(t)
	u.Opt.Pilot = true
	if _, err := u.Encode(); err == nil {
		t.Error("nested Pilot encoded")
	}
}

// resealed returns data with its trailer replaced by the seal of the rest,
// so a fuzzed mutation reaches the decoder instead of failing the seal. The
// fuzzers decode every input both as given and resealed.
func resealed(data []byte) []byte {
	if len(data) < sealLen {
		return data
	}
	w := &writer{b: append([]byte(nil), data[:len(data)-sealLen]...)}
	return w.seal()
}

// seedRoundTrip fails unless seed decodes and re-encodes to its own bytes:
// a seed a decoder refuses would only fuzz the error paths.
func seedRoundTrip(f *testing.F, seed []byte, decode func([]byte) (interface{ Encode() ([]byte, error) }, error)) {
	f.Helper()
	v, err := decode(seed)
	if err != nil {
		f.Fatalf("seed does not decode: %v", err)
	}
	again, err := v.Encode()
	if err != nil || !bytes.Equal(again, seed) {
		f.Fatalf("seed does not re-encode to itself (err %v)", err)
	}
}

// FuzzDecodeWork asserts the decoder's no-crash contract on arbitrary
// bytes, and full round-trip fidelity on valid encodings. Its seeds are a
// subset unit whose ids do not ascend (a shard's, in shard.Partition's
// coordinate order, do not) and an all-sinks unit.
func FuzzDecodeWork(f *testing.F) {
	in := bench.Intermingled(bench.Small(40, 3), 2, 5)
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	decode := func(b []byte) (interface{ Encode() ([]byte, error) }, error) { return DecodeWork(b) }
	for _, ids := range [][]int{{9, 0, 3}, nil} {
		seed, err := unitOf(in, ids, core.Options{}, reg).Encode()
		if err != nil {
			f.Fatal(err)
		}
		seedRoundTrip(f, seed, decode)
		f.Add(seed)
		f.Add(seed[:len(seed)-sealLen])
	}
	f.Add([]byte("ASTW"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, resealed(data)} {
			got, err := DecodeWork(data) // must never panic
			if err != nil {
				continue
			}
			// Whatever decoded must re-encode and decode to the same thing.
			again, err := got.Encode()
			if err != nil {
				t.Fatalf("decoded unit fails to re-encode: %v", err)
			}
			got2, err := DecodeWork(again)
			if err != nil {
				t.Fatalf("re-encoded unit fails to decode: %v", err)
			}
			if !reflect.DeepEqual(got.Registry, got2.Registry) || !reflect.DeepEqual(got.Sinks, got2.Sinks) {
				t.Fatal("round-trip through re-encode diverged")
			}
			if third, err := got2.Encode(); err != nil || !bytes.Equal(third, again) {
				t.Fatalf("round-trip through re-encode diverged (err %v)", err)
			}
		}
	})
}

// misplacedDeferral is a sealed result whose tree holds a deferred record
// where only a committed node may be, beside the control result of the same
// tree without that record.
type misplacedDeferral struct {
	name      string
	bad, good []byte
}

// misplacedDeferrals encodes, from hand-made trees over in's first three
// sinks, the deferred records DecodeResult must reject, since only an
// internal root may be deferred: a leaf at the root that holds a record,
// and a deferred node below a committed root.
func misplacedDeferrals(tb testing.TB, in *ctree.Instance) []misplacedDeferral {
	tb.Helper()
	m := core.DefaultModel()
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	encode := func(root *ctree.Node) []byte {
		data, err := (&BuildResult{Root: root, Registry: reg.Snapshot()}).Encode()
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	leaf := func(i int) *ctree.Node { return ctree.NewLeaf(&in.Sinks[i]) }

	lone := leaf(0)
	loneGood := encode(lone)
	lone.Def = &ctree.Deferral{D: 1, EHi: 1, Region: geom.OctFromRect(lone.Region), Groups: lone.Delay.Groups}

	l, r := leaf(0), leaf(1)
	d := geom.DistRR(l.Region, r.Region)
	below := &ctree.Node{ID: len(in.Sinks), Left: l, Right: r, Cap: l.Cap + r.Cap + m.WireCap(d)}
	split := ctree.NewDeferral(l, r, d, 0, d, geom.SDR(l.Region, r.Region, d, 0, d))
	below.Def = &split
	root := &ctree.Node{ID: len(in.Sinks) + 1, Left: below, Right: leaf(2)}
	belowBad := encode(root)
	below.Resolve(m, d/2)
	return []misplacedDeferral{
		{"deferred leaf at the root", encode(lone), loneGood},
		{"deferred node below the root", belowBad, encode(root)},
	}
}

// TestDecodeResultRejectsMisplacedDeferral: a sealed result whose deferred
// record is a leaf, or sits below the root, fails to decode with an error
// (which dispatch retries as transient) instead of reaching the stitch,
// while the same tree without that record decodes.
func TestDecodeResultRejectsMisplacedDeferral(t *testing.T) {
	in := bench.Intermingled(bench.Small(40, 3), 3, 5)
	for _, tc := range misplacedDeferrals(t, in) {
		if _, err := DecodeResult(tc.good, in); err != nil {
			t.Fatalf("%s: the control tree fails to decode: %v", tc.name, err)
		}
		if _, err := DecodeResult(tc.bad, in); err == nil || !strings.Contains(err.Error(), "deferred record") {
			t.Errorf("%s: err = %v, want the deferred-record error", tc.name, err)
		}
	}
}

// FuzzDecodeResult asserts the result decoder's no-crash contract,
// including the iterative tree reconstruction into the node slab, and that
// whatever decodes re-encodes to bytes that decode and encode back to
// themselves. Its seeds are a sub-build with compact leaves and a deferred
// root, the same with one leaf whose delay set starts at −0 (so it takes a
// full record), an embedded pilot patch (its root committed as the pilot
// commits it), whose placed nodes carry Loc and whose root is resolved, and
// the misplaced deferred records the decoder rejects.
func FuzzDecodeResult(f *testing.F) {
	in := bench.Intermingled(bench.Small(40, 3), 3, 5)
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	encode := func(run func(*WorkUnit) (*BuildResult, error), edit func(*ctree.Node)) []byte {
		br, err := run(unitOf(in, nil, core.Options{IntraSkewBound: 2}, reg))
		if err != nil {
			f.Fatal(err)
		}
		edit(br.Root)
		data, err := br.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	compact := encode(Execute, func(root *ctree.Node) {
		if root.Def == nil {
			f.Fatal("seed sub-build root is not deferred")
		}
	})
	negZero := encode(Execute, func(root *ctree.Node) {
		leaf := root
		for !leaf.IsLeaf() {
			leaf = leaf.Left
		}
		leaf.Delay = rctree.PointDelaySet(int(leaf.Delay.Groups[0]), rctree.Interval{Lo: math.Copysign(0, -1)})
	})
	if len(negZero) <= len(compact) {
		f.Fatal("the −0 leaf still travels as a compact record")
	}
	placed := encode(executeCommitted, func(root *ctree.Node) { root.Embed(geom.ToUV(in.Source)) })
	decode := func(b []byte) (interface{ Encode() ([]byte, error) }, error) { return DecodeResult(b, in) }
	for _, seed := range [][]byte{compact, negZero, placed} {
		seedRoundTrip(f, seed, decode)
		f.Add(seed)
	}
	for _, tc := range misplacedDeferrals(f, in) {
		if _, err := DecodeResult(tc.bad, in); err == nil {
			f.Fatalf("seed %q decodes", tc.name)
		}
		f.Add(tc.bad)
	}
	f.Add([]byte("ASTR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, resealed(data)} {
			br, err := DecodeResult(data, in) // must never panic
			if err != nil {
				continue
			}
			if br.Root == nil {
				t.Fatal("decoded result with nil root")
			}
			again, err := br.Encode()
			if err != nil {
				t.Fatalf("decoded result fails to re-encode: %v", err)
			}
			br2, err := DecodeResult(again, in)
			if err != nil {
				t.Fatalf("re-encoded result fails to decode: %v", err)
			}
			if third, err := br2.Encode(); err != nil || !bytes.Equal(third, again) {
				t.Fatalf("round-trip through re-encode diverged (err %v)", err)
			}
		}
	})
}
