package ctree_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/wire"
)

// frozenHalves routes the two interleaved halves of a grouped power-law
// instance as separate pre-stitch subtrees (deferred roots) and returns them
// frozen, with each subtree's encoding taken before freezing.
func frozenHalves(tb testing.TB, n int) (*ctree.Instance, *core.Registry, [2]*ctree.Frozen, [2][]byte) {
	tb.Helper()
	in := bench.Intermingled(bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, 3), 4, 3)
	base, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var halves [2][]int
	for id := range in.Sinks {
		halves[id%2] = append(halves[id%2], id)
	}
	var frozen [2]*ctree.Frozen
	var enc [2][]byte
	for h, ids := range halves {
		sub, err := core.BuildSubtree(in.SinkList(ids), in.NumGroups, core.Options{}, copyRegistry(tb, base))
		if err != nil {
			tb.Fatal(err)
		}
		enc[h] = encodeTree(tb, sub.Root)
		frozen[h] = ctree.Freeze(sub.Root)
	}
	return in, base, frozen, enc
}

// copyRegistry returns a private registry with base's committed state, the
// way the sharded pipeline hands each sub-build its own.
func copyRegistry(tb testing.TB, base *core.Registry) *core.Registry {
	tb.Helper()
	r, err := core.NewRegistryFromSnapshot(base.Snapshot())
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func encodeTree(tb testing.TB, root *ctree.Node) []byte {
	tb.Helper()
	b, err := (&wire.BuildResult{Root: root}).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestFrozenThaw pins the frozen form's contract: every thaw is an
// independent copy whose wire encoding is the original subtree's byte for
// byte, and stitching one copy (which resolves its deferred root, dropping
// the Deferral record the copies share, and may elongate handle edges in
// place) leaves the record, the snapshot and every other copy untouched.
func TestFrozenThaw(t *testing.T) {
	in, base, frozen, enc := frozenHalves(t, 2000)
	a, b := frozen[0].Thaw(in, nil), frozen[0].Thaw(in, nil)
	if a == b {
		t.Fatal("two thaws returned the same root")
	}
	if a.Def == nil {
		t.Fatal("subtree exercises too little: its root is not deferred")
	}
	rec := a.Def
	if b.Def != rec {
		t.Fatal("two thaws hold different records; the snapshot's is shared")
	}
	want := *rec
	want.Groups = slices.Clone(rec.Groups)
	if !bytes.Equal(encodeTree(t, a), enc[0]) {
		t.Fatal("thawed copy encodes differently from the original subtree")
	}

	if _, err := core.MergeRoots([]*ctree.Node{a, frozen[1].Thaw(in, nil)}, in.NumGroups, in.Source, core.Options{}, copyRegistry(t, base)); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encodeTree(t, a), enc[0]) {
		t.Fatal("stitch left the thawed copy unchanged; the test mutates nothing")
	}
	if a.Def != nil {
		t.Fatal("the stitch left the thawed root's record in place")
	}
	if !reflect.DeepEqual(*rec, want) || b.Def != rec {
		t.Error("stitching one copy changed the shared record")
	}
	if !bytes.Equal(encodeTree(t, b), enc[0]) {
		t.Error("stitching one copy changed a sibling copy")
	}
	if !bytes.Equal(encodeTree(t, frozen[0].Thaw(in, nil)), enc[0]) {
		t.Error("stitching one copy changed the snapshot")
	}
}

// TestFrozenThawRemap pins leaf renumbering: thawed with each leaf's image
// under a permutation into a permuted instance, every leaf lands on the
// image of its sink, ID included, and the rest of the tree is unchanged.
func TestFrozenThawRemap(t *testing.T) {
	in, _, frozen, _ := frozenHalves(t, 500)
	n := len(in.Sinks)
	perm := make([]int, n)
	moved := &ctree.Instance{Name: in.Name, Source: in.Source, NumGroups: in.NumGroups, Sinks: make([]ctree.Sink, n)}
	for id := range perm {
		perm[id] = n - 1 - id
		s := in.Sinks[id]
		s.ID = perm[id]
		moved.Sinks[perm[id]] = s
	}
	leaves := frozen[1].Leaves()
	for j, s := range leaves {
		leaves[j] = int32(perm[s])
	}
	var plain, remapped []*ctree.Node
	frozen[1].Thaw(in, nil).Visit(func(x *ctree.Node) { plain = append(plain, x) })
	frozen[1].Thaw(moved, leaves).Visit(func(x *ctree.Node) { remapped = append(remapped, x) })
	if len(plain) != len(remapped) {
		t.Fatalf("%d nodes vs %d", len(plain), len(remapped))
	}
	for i, p := range plain {
		r := remapped[i]
		if !p.IsLeaf() {
			if r.IsLeaf() || r.ID != p.ID || r.EdgeL != p.EdgeL || r.EdgeR != p.EdgeR {
				t.Fatalf("internal node %d changed under the remap", p.ID)
			}
			continue
		}
		if want := perm[p.Sink.ID]; r.Sink != &moved.Sinks[want] || r.ID != want {
			t.Fatalf("leaf of sink %d thawed onto sink %d (ID %d), want %d", p.Sink.ID, r.Sink.ID, r.ID, want)
		}
	}
}

// BenchmarkThaw measures clean-shard adoption alone: one thaw of a frozen
// 5k-sink grouped pre-stitch subtree.
func BenchmarkThaw(b *testing.B) {
	in, _, frozen, _ := frozenHalves(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		thawSink = frozen[0].Thaw(in, nil)
	}
}

// thawSink keeps BenchmarkThaw's result alive so the call is not elided.
var thawSink *ctree.Node
