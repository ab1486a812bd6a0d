package wire

import (
	"bytes"
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

// shardUnit is a sharded-difficult-sized work unit: a 4k-sink power-law
// instance in 4 intermingled groups, and the quarter of its sinks with the
// smallest x as the shard, so its result is a subtree of about 2,000 nodes.
func shardUnit(tb testing.TB) *WorkUnit {
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
	slices.Sort(ids)
	return &WorkUnit{Kind: KindBuild, Instance: in, SinkIDs: ids, Registry: reg.Snapshot()}
}

// shardResult executes shardUnit and returns the unit and the encoded result.
func shardResult(tb testing.TB) (*WorkUnit, []byte) {
	tb.Helper()
	u := shardUnit(tb)
	br, err := Execute(u)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := br.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return u, data
}

// TestDecodedTreeSlab pins the slab decode of a ~2,000-node subtree: each
// node's Groups and Delay slices are capacity-capped, so appending to one
// node leaves every other node as decoded; a decoded result re-encodes to
// its own bytes; and decoding allocates per chunk, not per node.
func TestDecodedTreeSlab(t *testing.T) {
	u, data := shardResult(t)
	br, err := DecodeResult(data, u.Instance)
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
	type slices3 struct {
		groups []int
		delays []int32
		ivs    []rctree.Interval
	}
	copyOf := func(n *ctree.Node) slices3 {
		return slices3{slices.Clone(n.Groups), slices.Clone(n.Delay.Groups), slices.Clone(n.Delay.Ivs)}
	}
	want := make([]slices3, len(nodes))
	for i, n := range nodes {
		want[i] = copyOf(n)
	}
	// The root's slices open their chunks; a middle and the last node's sit
	// between or after other nodes' slices.
	for _, k := range []int{0, len(nodes) / 2, len(nodes) - 1} {
		n := nodes[k]
		n.Groups = append(n.Groups, 1<<20)
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
		if _, err := DecodeResult(data, u.Instance); err != nil {
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
	u, result := shardResult(t)
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
	w.u8(KindBuild)
	if err := encodeOptions(w, core.Options{}); err != nil {
		t.Fatal(err)
	}
	w.uv(groups)
	w.raw(make([]byte, groups))
	data := w.seal()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeWork(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "registry group count") {
		t.Fatalf("err = %v, want the registry group-count error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*uint64(len(data)) {
		t.Errorf("decoding a %d-byte unit allocated %d bytes, want under twice its size", len(data), alloc)
	}
}

var benchSink any

func BenchmarkEncodeWork(b *testing.B) {
	u := shardUnit(b)
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
	u := shardUnit(b)
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
	br, err := Execute(shardUnit(b))
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
	u, data := shardResult(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSink, err = DecodeResult(data, u.Instance); err != nil {
			b.Fatal(err)
		}
	}
}
