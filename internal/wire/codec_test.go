package wire

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rctree"
)

// shardUnit is a sharded-difficult-sized work unit and its instance: a
// 4k-sink power-law instance in 4 intermingled groups, and the quarter of
// its sinks with the smallest x as the shard, so its result is a subtree of
// about 2,000 nodes. The shard's sinks stay in coordinate order, as
// shard.Partition leaves a shard's ids, so their ids do not ascend.
func shardUnit(tb testing.TB) (*WorkUnit, *ctree.Instance) {
	tb.Helper()
	in := bench.Intermingled(bench.PowerLaw(4000, bench.PowerLawClusters, bench.PowerLawAlpha, 1), 4, 11)
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int, len(in.Sinks))
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if xa, xb := in.Sinks[a].Loc.X, in.Sinks[b].Loc.X; xa != xb {
			if xa < xb {
				return -1
			}
			return 1
		}
		return a - b
	})
	ids = ids[:len(ids)/4]
	return unitOf(in, ids, core.Options{}, reg), in
}

// shardResult executes shardUnit and returns the unit, its instance and the
// encoded result.
func shardResult(tb testing.TB) (*WorkUnit, *ctree.Instance, []byte) {
	tb.Helper()
	u, in := shardUnit(tb)
	br, err := Execute(u)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := br.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return u, in, data
}

// TestDecodedTreeSlab pins the slab decode of a ~2,000-node subtree: each
// node's delay-set slices are capacity-capped, so appending to one node
// leaves every other node as decoded; a decoded result re-encodes to its
// own bytes; and decoding allocates per chunk, not per node.
func TestDecodedTreeSlab(t *testing.T) {
	_, in, data := shardResult(t)
	br, err := DecodeResult(data, in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := br.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("a decoded result re-encodes to other bytes")
	}

	nodes, err := preorder(br.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 1500 {
		t.Fatalf("fixture subtree has only %d nodes", len(nodes))
	}
	type slices2 struct {
		delays []int32
		ivs    []rctree.Interval
	}
	copyOf := func(n *ctree.Node) slices2 {
		return slices2{slices.Clone(n.Delay.Groups), slices.Clone(n.Delay.Ivs)}
	}
	want := make([]slices2, len(nodes))
	for i, n := range nodes {
		want[i] = copyOf(n)
	}
	// The root's slices open their chunks; a middle and the last node's sit
	// between or after other nodes' slices.
	for _, k := range []int{0, len(nodes) / 2, len(nodes) - 1} {
		n := nodes[k]
		n.Delay.Groups = append(n.Delay.Groups, 1<<20)
		n.Delay.Ivs = append(n.Delay.Ivs, rctree.Interval{Lo: -1, Hi: -1})
		want[k] = copyOf(n)
		for i, m := range nodes {
			if !reflect.DeepEqual(copyOf(m), want[i]) {
				t.Fatalf("appending to node %d changed node %d", k, i)
			}
		}
	}

	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeResult(data, in); err != nil {
			t.Fatal(err)
		}
	})
	// The slab, its chunks, the open-node stack and the registry check take
	// a few dozen allocations; one per node would take thousands.
	if allocs > 64 {
		t.Errorf("DecodeResult of %d nodes made %.0f allocations, want at most 64", len(nodes), allocs)
	}
}

// TestEncodeSizesOnce: every encoder sizes its buffer from the content, so
// the sealed message fills the buffer it was written into up to the small
// upper bounds kept for options and stats; a regrown buffer would have at
// least a quarter of its length spare.
func TestEncodeSizesOnce(t *testing.T) {
	u, _, result := shardResult(t)
	work, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := buildCache(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	slack := optionsLen(core.Options{}) + statsMaxLen
	for _, m := range []struct {
		name string
		data []byte
	}{{"work unit", work}, {"result", result}, {"cache", cache}} {
		if spare := cap(m.data) - len(m.data); spare > slack {
			t.Errorf("%s of %d bytes left %d bytes of its buffer spare, want at most %d",
				m.name, len(m.data), spare, slack)
		}
	}
}

// TestDecodeSnapshotBoundsGroupCount: each registry group takes at least
// minGroupBytes, so a sealed 8 MiB work unit that claims 8M groups fails on
// its group count before the decoder allocates for them.
func TestDecodeSnapshotBoundsGroupCount(t *testing.T) {
	const groups = 8 << 20
	w := newWriter(magicWork, 0)
	if err := encodeOptions(w, core.Options{}); err != nil {
		t.Fatal(err)
	}
	w.uv(groups)
	w.raw(make([]byte, groups))
	data := w.seal()

	var err error
	alloc := allocsOf(func() { _, err = DecodeWork(data) })
	if err == nil || !strings.Contains(err.Error(), "registry group count") {
		t.Fatalf("err = %v, want the registry group-count error", err)
	}
	if alloc >= 2*uint64(len(data)) {
		t.Errorf("decoding a %d-byte unit allocated %d bytes, want under twice its size", len(data), alloc)
	}
}

var benchSink any

func BenchmarkEncodeWork(b *testing.B) {
	u, _ := shardUnit(b)
	data, err := u.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = u.Encode()
	}
}

func BenchmarkDecodeWork(b *testing.B) {
	u, _ := shardUnit(b)
	data, err := u.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, err = DecodeWork(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeResult(b *testing.B) {
	u, _ := shardUnit(b)
	br, err := Execute(u)
	if err != nil {
		b.Fatal(err)
	}
	data, err := br.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = br.Encode()
	}
}

func BenchmarkDecodeResult(b *testing.B) {
	_, in, data := shardResult(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, err = DecodeResult(data, in); err != nil {
			b.Fatal(err)
		}
	}
}

// nodeBits lists every float of a node as its bit pattern, its deferral
// record's included.
func nodeBits(n *ctree.Node) []uint64 {
	fs := []float64{n.EdgeL, n.EdgeR, n.Region.ULo, n.Region.UHi, n.Region.VLo, n.Region.VHi, n.Cap,
		n.Loc.U, n.Loc.V}
	if s := n.Def; s != nil {
		fs = append(fs, s.D, s.ELo, s.EHi, s.Region.ULo, s.Region.UHi, s.Region.VLo,
			s.Region.VHi, s.Region.SLo, s.Region.SHi, s.Region.TLo, s.Region.THi)
	}
	for _, iv := range n.Delay.Ivs {
		fs = append(fs, iv.Lo, iv.Hi)
	}
	bits := make([]uint64, len(fs))
	for i, f := range fs {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

// TestDecodedResultMatchesExecute: a sub-build that travels — its unit
// encoded and decoded, executed on the decoded unit, its result encoded and
// decoded against the coordinator's instance — is the in-process Execute's
// tree node for node: every field bitwise, a deferred node's record
// included, and every leaf's Sink pointing into the coordinator's instance.
// It holds for a shard build (deferred root), a pilot patch (its root
// committed with executeCommitted, so resolved) and a SingleGroup build,
// whose leaves take group 0 whatever their sinks' groups, and every leaf of
// each travels as a compact record.
func TestDecodedResultMatchesExecute(t *testing.T) {
	u, in := shardUnit(t)
	single := *u
	single.Opt.SingleGroup = true
	for _, tc := range []struct {
		name string
		u    *WorkUnit
		run  func(*WorkUnit) (*BuildResult, error)
	}{{"shard", u, Execute}, {"patch", u, executeCommitted}, {"single group", &single, Execute}} {
		ref, err := tc.run(tc.u)
		if err != nil {
			t.Fatal(err)
		}
		data, err := tc.u.Encode()
		if err != nil {
			t.Fatal(err)
		}
		wu, err := DecodeWork(data)
		if err != nil {
			t.Fatal(err)
		}
		br, err := tc.run(wu)
		if err != nil {
			t.Fatal(err)
		}
		if data, err = br.Encode(); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(data, in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != ref.Stats || !reflect.DeepEqual(got.Registry, ref.Registry) {
			t.Errorf("%s: stats or registry differ", tc.name)
		}
		want, err := preorder(ref.Root)
		if err != nil {
			t.Fatal(err)
		}
		have, err := preorder(got.Root)
		if err != nil {
			t.Fatal(err)
		}
		if len(have) != len(want) {
			t.Fatalf("%s: %d nodes, want %d", tc.name, len(have), len(want))
		}
		leaves := 0
		for i, w := range want {
			h := have[i]
			if h.ID != w.ID || h.Placed != w.Placed || (h.Def == nil) != (w.Def == nil) || h.IsLeaf() != w.IsLeaf() ||
				!slices.Equal(h.Groups(), w.Groups()) || !slices.Equal(h.Delay.Groups, w.Delay.Groups) ||
				h.Delay.IsZero() != w.Delay.IsZero() || !slices.Equal(nodeBits(h), nodeBits(w)) {
				t.Fatalf("%s: node %d (ID %d) differs from Execute's", tc.name, i, w.ID)
			}
			if w.IsLeaf() {
				leaves++
				if h.Sink != &in.Sinks[w.ID] || w.Sink != h.Sink {
					t.Fatalf("%s: leaf %d does not point at its sink in the instance", tc.name, w.ID)
				}
				if !isCompact(w) {
					t.Fatalf("%s: leaf %d is not canonical, so it travels in full", tc.name, w.ID)
				}
			}
		}
		if leaves != len(tc.u.Sinks) {
			t.Fatalf("%s: %d leaves for %d sinks", tc.name, leaves, len(tc.u.Sinks))
		}
	}
}

// allocsOf reports the bytes f allocates: the least of five readings of
// runtime.MemStats.TotalAlloc around a call of f. TotalAlloc counts the
// allocations of every goroutine in the test process, so one reading can
// include another test's; an allocation f makes on every call shows in
// every reading, so the least still holds it.
func allocsOf(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestDecodeWorkBoundsSinks: a sealed unit of a few hundred bytes that
// claims a huge instance — a sink count past its payload, or sink ids up to
// 1<<40 — fails before the decoder allocates for it, and so does one whose
// ids repeat or one of whose sinks a decoded instance would refuse: a NaN
// location, a negative load, a group past the unit's group count.
func TestDecodeWorkBoundsSinks(t *testing.T) {
	in := bench.Intermingled(bench.Small(40, 3), 4, 5)
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// sinks copies the instance's first len(ids) sinks under the given ids,
	// after edit.
	sinks := func(ids []int, edit func(s []ctree.Sink)) []ctree.Sink {
		s := slices.Clone(in.Sinks[:len(ids)])
		for i, id := range ids {
			s[i].ID = id
		}
		if edit != nil {
			edit(s)
		}
		return s
	}
	unit := func(count uint64, sinks []ctree.Sink) []byte {
		w := newWriter(magicWork, 0)
		if err := encodeOptions(w, core.Options{}); err != nil {
			t.Fatal(err)
		}
		encodeSnapshot(w, reg.Snapshot())
		w.uv(uint64(in.NumGroups))
		w.f64(in.Source.X)
		w.f64(in.Source.Y)
		w.uv(count)
		for _, s := range sinks {
			w.uv(uint64(s.ID))
			w.f64(s.Loc.X)
			w.f64(s.Loc.Y)
			w.f64(s.CapFF)
			w.uv(uint64(s.Group))
		}
		return w.seal()
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"sink count 1<<40", "sink count", unit(1<<40, sinks(ids, nil))},
		{"sink count past payload", "sink count", unit(9, sinks(ids, nil))},
		{"ids up to 1<<40", "out of range", unit(8, sinks([]int{0, 1 << 20, 1 << 30, 1 << 33, 1 << 36, 1 << 38, 1 << 39, 1 << 40}, nil))},
		{"duplicate ids", "duplicate", unit(8, sinks([]int{5, 1, 2, 3, 4, 5, 6, 7}, nil))},
		{"NaN location", "non-finite", unit(8, sinks(ids, func(s []ctree.Sink) { s[3].Loc.Y = math.NaN() }))},
		{"negative load", "negative cap", unit(8, sinks(ids, func(s []ctree.Sink) { s[5].CapFF = -1 }))},
		{"group past the count", "in group 4 of 4", unit(8, sinks(ids, func(s []ctree.Sink) { s[2].Group = in.NumGroups }))},
	} {
		var err error
		alloc := allocsOf(func() { _, err = DecodeWork(tc.data) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if alloc >= 4*uint64(len(tc.data)) {
			t.Errorf("%s: decoding a %d-byte unit allocated %d bytes, want under 4× its size", tc.name, len(tc.data), alloc)
		}
	}
	if _, err := DecodeWork(unit(8, sinks(ids, nil))); err != nil {
		t.Fatalf("the unedited unit fails to decode: %v", err)
	}
}

// TestDecodeResultBoundsNodeCount: a sealed result that claims more than
// 2n − 1 nodes over an n-sink instance fails on its node count before the
// decoder allocates the node slab, however much payload follows.
func TestDecodeResultBoundsNodeCount(t *testing.T) {
	in := bench.Intermingled(bench.Small(40, 3), 4, 5)
	count := 2 * len(in.Sinks)
	w := newWriter(magicResult, 0)
	w.uv(uint64(count))
	w.raw(make([]byte, count*(minNodeBytes+minLeafBytes)))
	data := w.seal()
	var err error
	alloc := allocsOf(func() { _, err = DecodeResult(data, in) })
	if err == nil || !strings.Contains(err.Error(), "nodes over an instance") {
		t.Fatalf("err = %v, want the node-count error", err)
	}
	if alloc >= 2*uint64(len(data)) {
		t.Errorf("decoding a %d-byte result allocated %d bytes, want under twice its size", len(data), alloc)
	}
}
