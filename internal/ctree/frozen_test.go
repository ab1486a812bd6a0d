package ctree_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/wire"
)

// frozenHalves routes the two interleaved halves of a grouped power-law
// instance as separate pre-stitch subtrees (deferred roots) and returns them
// frozen, with each subtree's encoding taken before freezing. The routers
// leave Node.Handles empty, so each root gets two handles attached by hand
// to exercise the handle triples.
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
		sub, err := core.BuildSubtree(in, ids, core.Options{}, base.Clone())
		if err != nil {
			tb.Fatal(err)
		}
		r := sub.Root
		r.Handles = map[int]ctree.EdgeRef{0: {Parent: r.Left, Side: ctree.SideR}, 2: {Parent: r, Side: ctree.SideL}}
		enc[h] = encodeTree(tb, r)
		frozen[h] = ctree.Freeze(r)
	}
	return in, base, frozen, enc
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
// byte, and stitching one copy (which resolves its deferred root and may
// elongate handle edges in place) leaves the snapshot and every other copy
// untouched.
func TestFrozenThaw(t *testing.T) {
	in, base, frozen, enc := frozenHalves(t, 2000)
	a, b := frozen[0].Thaw(in, nil), frozen[0].Thaw(in, nil)
	if a == b {
		t.Fatal("two thaws returned the same root")
	}
	handles := 0
	a.Visit(func(n *ctree.Node) { handles += len(n.Handles) })
	if handles == 0 || !a.Deferred {
		t.Fatalf("subtree exercises too little: %d handles, deferred root %v", handles, a.Deferred)
	}
	if !bytes.Equal(encodeTree(t, a), enc[0]) {
		t.Fatal("thawed copy encodes differently from the original subtree")
	}

	if _, err := core.MergeRoots(in, []*ctree.Node{a, frozen[1].Thaw(in, nil)}, core.Options{}, base.Clone()); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encodeTree(t, a), enc[0]) {
		t.Fatal("stitch left the thawed copy unchanged; the test mutates nothing")
	}
	if !bytes.Equal(encodeTree(t, b), enc[0]) {
		t.Error("stitching one copy changed a sibling copy")
	}
	if !bytes.Equal(encodeTree(t, frozen[0].Thaw(in, nil)), enc[0]) {
		t.Error("stitching one copy changed the snapshot")
	}
}

// TestFrozenThawRemap pins leaf renumbering: thawed through a permutation
// into a permuted instance, every leaf lands on the image of its sink, ID
// included, and the rest of the tree is unchanged.
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
	var plain, remapped []*ctree.Node
	frozen[1].Thaw(in, nil).Visit(func(x *ctree.Node) { plain = append(plain, x) })
	frozen[1].Thaw(moved, perm).Visit(func(x *ctree.Node) { remapped = append(remapped, x) })
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
