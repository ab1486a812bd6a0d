package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ecoInstance is the grouped differential workload: an Intermingled grouping
// (every group spans every shard, the difficult seam case) over a power-law
// placement, the distribution the benchmarks report.
func ecoInstance(n, groups int) *ctree.Instance {
	return bench.Intermingled(bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, 9), groups, 9000+int64(n))
}

// ecoScript builds a small edit script whose dirty set is exactly shards
// {0, 1} of the cached partition: a move, a reload and a removal targeting
// shard 0's sinks, plus an addition placed on top of a shard 1 sink (nearest
// live neighbor therefore lives in shard 1).
func ecoScript(in *ctree.Instance, parts [][]int) *instio.EditScript {
	a, b := parts[0], parts[1]
	mv := in.Sinks[a[0]].Loc
	anchor := in.Sinks[b[0]]
	return &instio.EditScript{Name: "eco-test", Edits: []instio.Edit{
		{Op: instio.OpMove, Sink: a[0], Loc: geom.Point{X: mv.X + 40, Y: mv.Y - 25}},
		{Op: instio.OpReload, Sink: a[1], CapFF: in.Sinks[a[1]].CapFF * 1.7},
		{Op: instio.OpRemove, Sink: a[2]},
		{Op: instio.OpAdd, Loc: geom.Point{X: anchor.Loc.X + 1, Y: anchor.Loc.Y + 1},
			CapFF: anchor.CapFF, Group: anchor.Group},
	}}
}

// TestEcoNoopRebuild pins the rebuild's degenerate case: an empty edit
// script dirties nothing, so the rebuild adopts every cached subtree and
// re-runs only the stitch — and because a thawed subtree is bitwise the
// frozen build and the stitch is deterministic, the result is bitwise the
// retained build's. This is the foundation the differential tests stand on:
// any drift between the cached contract and the from-scratch pipeline shows
// up here first.
func TestEcoNoopRebuild(t *testing.T) {
	// The unpiloted rows pin the cache's base registry: it must be the
	// snapshot the shards cloned, not the one the stitch committed
	// offsets into.
	for _, row := range []struct {
		n     int
		pilot bool
	}{{2000, true}, {2000, false}, {4000, false}} {
		in := ecoInstance(row.n, 3)
		full, err := BuildEco(in, core.Options{Shards: 4, Pilot: row.pilot}, dispatch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Eco == nil || len(full.Eco.shards) != 4 {
			t.Fatalf("%+v: retained build carries no eco contract: %+v", row, full.Eco)
		}
		res, err := full.Eco.Rebuild(&instio.EditScript{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.EcoRebuilt) != 0 || res.EcoReused != 4 {
			t.Errorf("%+v: noop rebuild re-routed %v, reused %d; want none, 4", row, res.EcoRebuilt, res.EcoReused)
		}
		if wb, rb := math.Float64bits(res.Wirelength), math.Float64bits(full.Wirelength); wb != rb {
			t.Errorf("%+v: noop rebuild wirelength %v (bits 0x%016x), want %v (0x%016x)",
				row, res.Wirelength, wb, full.Wirelength, rb)
		}
		if gh, rh := delayDigest(t, res.Root, in), delayDigest(t, full.Root, in); gh != rh {
			t.Errorf("%+v: noop rebuild delay digest 0x%016x, want 0x%016x", row, gh, rh)
		}
		if res.Eco == nil {
			t.Errorf("%+v: rebuild result does not chain an eco contract", row)
		}
		for i := range res.Shards {
			if res.Shards[i].Stats != full.Shards[i].Stats {
				t.Errorf("%+v: shard %d stats changed on a noop rebuild", row, i)
			}
		}
	}
}

// ecoDifferential runs the incremental-vs-from-scratch differential at one
// size: retained piloted build at k shards, an edit script dirtying 2 of
// them, then the eval-backed envelope — only the dirty shards rebuilt
// (pinned by the per-shard build counters), wirelength within the sharded
// envelope of the unsharded build of the edited instance, seam skew and
// intra-group skew no worse than a from-scratch piloted sharded build's
// (within float tolerance), and the whole rebuild deterministic.
func ecoDifferential(t *testing.T, n, k int) {
	in := ecoInstance(n, 4)
	full, err := BuildEco(in, core.Options{Shards: k, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	script := ecoScript(in, full.Parts)
	res, err := full.Eco.Rebuild(script)
	if err != nil {
		t.Fatal(err)
	}
	edited := res.Instance

	// Dirty-set pinning: exactly shards {0, 1}, everything else adopted
	// with its cached build counters untouched.
	if len(res.EcoRebuilt) != 2 || res.EcoRebuilt[0] != 0 || res.EcoRebuilt[1] != 1 {
		t.Fatalf("dirty set %v, want [0 1]", res.EcoRebuilt)
	}
	if res.EcoReused != k-2 {
		t.Errorf("reused %d shards, want %d", res.EcoReused, k-2)
	}
	for i := 2; i < k; i++ {
		if res.Shards[i].Stats != full.Shards[i].Stats {
			t.Errorf("clean shard %d was rebuilt: stats %+v, cached %+v", i, res.Shards[i].Stats, full.Shards[i].Stats)
		}
		if res.Shards[i].Sinks != full.Shards[i].Sinks {
			t.Errorf("clean shard %d sink count drifted: %d vs %d", i, res.Shards[i].Sinks, full.Shards[i].Sinks)
		}
	}

	// Quality envelope against the edited instance.
	if err := eval.CheckTree(res.Root, edited); err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	rep := eval.Analyze(res.Root, edited, core.DefaultModel(), edited.Source)
	if rep.Sinks != len(edited.Sinks) {
		t.Fatalf("reached %d of %d sinks", rep.Sinks, len(edited.Sinks))
	}
	ref, err := core.Build(edited, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.Wirelength / ref.Wirelength; ratio > wireEnvelope {
		t.Errorf("wirelength ratio %.4f vs unsharded exceeds envelope %v", ratio, wireEnvelope)
	}
	scratch, err := Build(edited, core.Options{Shards: k, Pilot: true})
	if err != nil {
		t.Fatal(err)
	}
	srep := eval.Analyze(scratch.Root, edited, core.DefaultModel(), edited.Source)
	_, seam := eval.SeamSkew(rep, edited, res.Parts)
	_, sseam := eval.SeamSkew(srep, edited, scratch.Parts)
	// The rebuild reuses the CACHED pilot contract where the scratch build
	// re-runs its pilot on the edited instance; with a handful of edits the
	// two contracts are near-identical, so the seam residual must stay in
	// the scratch build's neighborhood rather than regress toward the
	// unpiloted level.
	if tol := 1e-6 * (1 + sseam); seam > 2*sseam+tol {
		t.Errorf("eco seam skew %v ps vs from-scratch piloted %v ps", seam, sseam)
	}
	if tol := 1e-6 * (1 + srep.MaxGroupSkew); rep.MaxGroupSkew > 2*srep.MaxGroupSkew+tol {
		t.Errorf("eco intra-group skew %v ps vs from-scratch %v ps", rep.MaxGroupSkew, srep.MaxGroupSkew)
	}
	t.Logf("n=%d k=%d: wire ratio %.4f (scratch %.4f), seam %v ps (scratch %v), group skew %v ps (scratch %v)",
		n, k, res.Wirelength/ref.Wirelength, scratch.Wirelength/ref.Wirelength,
		seam, sseam, rep.MaxGroupSkew, srep.MaxGroupSkew)

	// Determinism: the same cache absorbs the same script again (the
	// scratch index was consumed by the first rebuild and is re-derived),
	// bitwise.
	again, err := full.Eco.Rebuild(script)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.Wirelength) != math.Float64bits(res.Wirelength) {
		t.Errorf("repeat rebuild wirelength %v != %v", again.Wirelength, res.Wirelength)
	}
	if gh, rh := delayDigest(t, again.Root, edited), delayDigest(t, res.Root, edited); gh != rh {
		t.Errorf("repeat rebuild delay digest 0x%016x, want 0x%016x", gh, rh)
	}
}

// TestEcoDifferential is the tier-1 differential at 10k; the acceptance-size
// run at 100k/8 shards (the benchmark config) is expensive and runs when
// ECO_100K is set — CI's eco job exercises it alongside the race-checked
// tier-1 sizes.
func TestEcoDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential needs the 10k grouped build")
	}
	ecoDifferential(t, 10_000, 8)
}

func TestEcoDifferential100k(t *testing.T) {
	if os.Getenv("ECO_100K") == "" {
		t.Skip("set ECO_100K=1 for the acceptance-size differential")
	}
	ecoDifferential(t, 100_000, 8)
}

// TestEcoChainedRebuild pins that rebuilds compound: the chained cache of a
// first rebuild absorbs a second script without a full build, and hands over
// (or re-derives) the spatial scratch state correctly in both the
// ids-preserved and ids-shifted regimes.
func TestEcoChainedRebuild(t *testing.T) {
	in := ecoInstance(3000, 3)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First script has no removals → sink ids survive → the patched index
	// is handed to the chained cache.
	p := full.Parts
	s1 := &instio.EditScript{Name: "hop1", Edits: []instio.Edit{
		{Op: instio.OpMove, Sink: p[0][0], Loc: geom.Point{X: in.Sinks[p[0][0]].Loc.X + 10, Y: in.Sinks[p[0][0]].Loc.Y}},
		{Op: instio.OpAdd, Loc: in.Sinks[p[2][0]].Loc, CapFF: 1, Group: in.Sinks[p[2][0]].Group},
	}}
	r1, err := full.Eco.Rebuild(s1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Eco == nil {
		t.Fatal("first rebuild chains no contract")
	}
	// Second script removes through the handed-over index.
	e1 := r1.Instance
	s2 := &instio.EditScript{Name: "hop2", Edits: []instio.Edit{
		{Op: instio.OpRemove, Sink: r1.Parts[1][0]},
		{Op: instio.OpAdd, Loc: e1.Sinks[r1.Parts[3][0]].Loc, CapFF: 1, Group: e1.Sinks[r1.Parts[3][0]].Group},
	}}
	r2, err := r1.Eco.Rebuild(s2)
	if err != nil {
		t.Fatal(err)
	}
	e2 := r2.Instance
	if err := eval.CheckTree(r2.Root, e2); err != nil {
		t.Fatalf("CheckTree after two hops: %v", err)
	}
	rep := eval.Analyze(r2.Root, e2, core.DefaultModel(), e2.Source)
	if rep.Sinks != len(e2.Sinks) {
		t.Fatalf("reached %d of %d sinks", rep.Sinks, len(e2.Sinks))
	}
	ref, err := core.Build(e2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r2.Wirelength / ref.Wirelength; ratio > wireEnvelope {
		t.Errorf("two-hop wirelength ratio %.4f exceeds envelope %v", ratio, wireEnvelope)
	}
	// Both hops must agree with a fresh rebuild of the same scripts from a
	// fresh retained build — the handover is an optimization, never a
	// semantic input.
	full2, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := full2.Eco.Rebuild(s1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := q1.Eco.Rebuild(s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(q2.Wirelength) != math.Float64bits(r2.Wirelength) {
		t.Errorf("chained rebuild not reproducible: wire %v vs %v", q2.Wirelength, r2.Wirelength)
	}
	if gh, rh := delayDigest(t, q2.Root, e2), delayDigest(t, r2.Root, e2); gh != rh {
		t.Errorf("chained rebuild delay digest 0x%016x, want 0x%016x", gh, rh)
	}
}

// TestEcoCacheFromAnotherBuild: the cache a Version 6 build wrote fails to
// open with an error that wraps wire.ErrVersion and says how to rewrite it.
func TestEcoCacheFromAnotherBuild(t *testing.T) {
	full, err := BuildEco(ecoInstance(600, 3), core.Options{Shards: 2, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := full.Eco.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Version 7 changed only the seal, so Version 6 wrote the same bytes
	// under version 6 (the little-endian uint16 after the 4-byte magic),
	// with an 8-byte FNV-64a trailer for the 4-byte CRC-32C one, on each
	// shard blob and on the container.
	asVersion6 := func(m []byte) []byte {
		body := append([]byte(nil), m[:len(m)-4]...)
		binary.LittleEndian.PutUint16(body[4:], 6)
		h := fnv.New64a()
		h.Write(body)
		return binary.LittleEndian.AppendUint64(body, h.Sum64())
	}
	wc, err := wire.DecodeCache(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range wc.Blobs {
		wc.Blobs[i] = asVersion6(b)
	}
	if blob, err = wc.Encode(); err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalEcoCache(asVersion6(blob))
	if !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("err = %v, want one wrapping wire.ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "rerun the retained build") {
		t.Errorf("err = %q does not say how to rewrite the cache", err)
	}
}

// TestEcoCacheRoundTrip pins the persisted contract: Marshal →
// UnmarshalEcoCache → Rebuild produces bitwise the in-process rebuild, so
// astdme -cache/-eco spans process boundaries without quality loss.
func TestEcoCacheRoundTrip(t *testing.T) {
	in := ecoInstance(2000, 3)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := full.Eco.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cache, err := UnmarshalEcoCache(blob)
	if err != nil {
		t.Fatal(err)
	}
	script := ecoScript(in, full.Parts)
	want, err := full.Eco.Rebuild(script)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cache.Rebuild(script)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Wirelength) != math.Float64bits(want.Wirelength) {
		t.Errorf("decoded-cache rebuild wire %v != in-process %v", got.Wirelength, want.Wirelength)
	}
	if gh, rh := delayDigest(t, got.Root, got.Instance), delayDigest(t, want.Root, want.Instance); gh != rh {
		t.Errorf("decoded-cache rebuild digest 0x%016x, want 0x%016x", gh, rh)
	}
	// The chained cache carries renumbered leaf ids for the clean shards
	// (the script removed a sink); Marshal must apply them when it encodes
	// the disk format, and a rebuild from the round-tripped bytes must
	// match the in-process chained rebuild bit for bit.
	chainBlob, err := want.Eco.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	chainCache, err := UnmarshalEcoCache(chainBlob)
	if err != nil {
		t.Fatal(err)
	}
	hop := ecoScript(want.Instance, want.Parts)
	want2, err := want.Eco.Rebuild(hop)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := chainCache.Rebuild(hop)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got2.Wirelength) != math.Float64bits(want2.Wirelength) {
		t.Errorf("materialized-cache rebuild wire %v != chained in-process %v", got2.Wirelength, want2.Wirelength)
	}
	if gh, rh := delayDigest(t, got2.Root, got2.Instance), delayDigest(t, want2.Root, want2.Instance); gh != rh {
		t.Errorf("materialized-cache rebuild digest 0x%016x, want 0x%016x", gh, rh)
	}

	// Corruption anywhere in the container must surface at decode, not as a
	// wrong tree later.
	for _, cut := range []int{1, len(blob) / 2, len(blob) - 1} {
		if _, err := UnmarshalEcoCache(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	flip := append([]byte(nil), blob...)
	flip[len(flip)/3] ^= 0x40
	if _, err := UnmarshalEcoCache(flip); err == nil {
		t.Error("bit flip accepted")
	}

	// A container whose partition trades one sink between shards 0 and 1 is
	// still an exact cover, so the wire layer accepts it; the shard blobs no
	// longer match it, which the open must reject.
	p0, p1 := append([]int(nil), full.Parts[0]...), append([]int(nil), full.Parts[1]...)
	p0[0], p1[0] = p1[0], p0[0]
	traded := *full.Eco
	traded.Parts = append([][]int{p0, p1}, full.Parts[2:]...)
	tradedBlob, err := traded.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalEcoCache(tradedBlob); err == nil {
		t.Error("cache whose shard subtrees disagree with its partition accepted")
	}

	// A container whose pilot offsets break the contract, resealed, passes
	// the wire layer, which checks only their count; the open must reject
	// it before a rebuild routes against the registry they make.
	for _, tc := range []struct {
		name string
		edit func(offs []float64)
	}{
		{"a NaN offset", func(offs []float64) { offs[1] = math.NaN() }},
		{"a nonzero entry 0", func(offs []float64) { offs[0] = 1 }},
	} {
		wc, err := wire.DecodeCache(blob)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(wc.Offsets)
		resealed, err := wc.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeCache(resealed); err != nil {
			t.Fatalf("%s: the wire layer rejects the resealed cache: %v", tc.name, err)
		}
		if _, err := UnmarshalEcoCache(resealed); err == nil || !strings.Contains(err.Error(), "offset contract") {
			t.Errorf("%s: err = %v, want the offset-contract error", tc.name, err)
		}
	}
}

// TestEcoFrozenChainMatchesRoundTrip pins the in-memory frozen path against
// the process boundary over a 20-hop seeded chain of 0.1% edit scripts: at
// every hop, rebuilding from the chained cache (clean shards thawed from
// their snapshots onto their carried leaf ids) is bitwise the
// rebuild from that cache's Marshal → UnmarshalEcoCache round trip (every
// shard encoded, then decoded through the full wire validation).
func TestEcoFrozenChainMatchesRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("20-hop chain needs 40 rebuilds")
	}
	in := ecoInstance(4000, 4)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cur := full.Eco
	for hop := 0; hop < 20; hop++ {
		script, err := instio.Perturb(cur.Instance, 0.001, int64(100+hop))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := cur.Marshal()
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		sealed, err := UnmarshalEcoCache(blob)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		got, err := cur.Rebuild(script)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		want, err := sealed.Rebuild(script)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if got.EcoReused == 0 {
			t.Fatalf("hop %d adopted no clean shard", hop)
		}
		if gb, wb := math.Float64bits(got.Wirelength), math.Float64bits(want.Wirelength); gb != wb {
			t.Fatalf("hop %d: frozen-path wire %v, round trip %v", hop, got.Wirelength, want.Wirelength)
		}
		if gh, wh := delayDigest(t, got.Root, got.Instance), delayDigest(t, want.Root, want.Instance); gh != wh {
			t.Fatalf("hop %d: frozen-path delay digest 0x%016x, round trip 0x%016x", hop, gh, wh)
		}
		cur = got.Eco
	}
}

// BenchmarkEcoHop measures one incremental rebuild hop the way dmebench's
// eco-chain workload does: a seeded chain of 0.1% edit scripts walked from
// the retained cache of a grouped piloted 10k build at 8 shards, each hop
// rebuilding the cache the previous hop chained, and the chain restarting
// from the retained build every 20 hops. Rebuilding one cache over and over
// would re-derive its dirty-set index on every iteration, which no chain
// does.
func BenchmarkEcoHop(b *testing.B) {
	in := ecoInstance(10_000, 4)
	full, err := BuildEco(in, core.Options{Shards: 8, Pilot: true}, dispatch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	scripts := make([]*instio.EditScript, 20)
	cur := in
	for h := range scripts {
		if scripts[h], err = instio.Perturb(cur, 0.001, int64(1+h)); err != nil {
			b.Fatal(err)
		}
		if cur, _, err = scripts[h].Apply(cur); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	c := full.Eco
	for i := 0; i < b.N; i++ {
		h := i % len(scripts)
		if h == 0 {
			c = full.Eco
		}
		res, err := c.Rebuild(scripts[h])
		if err != nil {
			b.Fatal(err)
		}
		c = res.Eco
	}
}

// TestEcoInvalidation covers the edits the contract cannot absorb: a script
// that empties a shard reports ErrFullBuild (the caller's cue to rebuild
// from scratch); a script that empties a group is rejected by Apply; a
// malformed cache is rejected up front.
func TestEcoInvalidation(t *testing.T) {
	in := bench.Intermingled(bench.Small(40, 3), 2, 5)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Remove every sink of shard 2 — unless that would empty a group, in
	// which case the group rejection fires first; build the script against
	// the actual partition so it always empties the shard.
	var edits []instio.Edit
	for _, s := range full.Parts[2] {
		edits = append(edits, instio.Edit{Op: instio.OpRemove, Sink: s})
	}
	_, err = full.Eco.Rebuild(&instio.EditScript{Edits: edits})
	if err == nil {
		t.Fatal("emptied shard accepted")
	}
	if !errors.Is(err, ErrFullBuild) {
		// Emptying the shard may have emptied a group first on this tiny
		// instance; that is an Apply validation error, not a fallback cue.
		t.Logf("emptied shard rejected by apply instead: %v", err)
	}

	if _, err := full.Eco.Rebuild(&instio.EditScript{Edits: []instio.Edit{
		{Op: instio.OpMove, Sink: len(in.Sinks) + 5, Loc: geom.Point{X: 1, Y: 1}},
	}}); err == nil {
		t.Error("unknown sink id accepted")
	}

	bad := &EcoCache{Instance: in}
	if _, err := bad.Rebuild(&instio.EditScript{}); err == nil {
		t.Error("malformed cache accepted")
	}

	if _, err := BuildEco(in, core.Options{}, dispatch.Options{}); err == nil {
		t.Error("BuildEco without Shards accepted (nothing to retain against)")
	}
}

// TestEcoFailedRebuildKeepsCacheUsable pins that a failed rebuild leaves
// its cache as it found it. The edit walk patches the cache's spatial index
// in place, so a rebuild that fails after it (here: cancelled before the
// fan-out) must not leave that index behind: a retry of the same script on
// the same cache must be bitwise the rebuild of an identical, untouched
// cache. The script adds a second sink next to the first addition, whose
// nearest live sink is therefore an added one.
func TestEcoFailedRebuildKeepsCacheUsable(t *testing.T) {
	in := ecoInstance(2000, 3)
	opt := core.Options{Shards: 4, Pilot: true}
	full, err := BuildEco(in, opt, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	script := ecoScript(in, full.Parts)
	add := script.Edits[len(script.Edits)-1]
	add.Loc.X += 2
	script.Edits = append(script.Edits, add)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := full.Eco.RebuildDispatch(script, RebuildOptions{Ctx: ctx}, dispatch.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("rebuild under a cancelled context: %v, want context.Canceled", err)
	}
	got, err := full.Eco.Rebuild(script)
	if err != nil {
		t.Fatalf("retry after a cancelled rebuild: %v", err)
	}
	twin, err := BuildEco(in, opt, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Eco.Rebuild(script)
	if err != nil {
		t.Fatal(err)
	}
	if gb, wb := math.Float64bits(got.Wirelength), math.Float64bits(want.Wirelength); gb != wb {
		t.Errorf("retried rebuild wirelength bits 0x%016x, want 0x%016x", gb, wb)
	}
	if gh, wh := delayDigest(t, got.Root, got.Instance), delayDigest(t, want.Root, want.Instance); gh != wh {
		t.Errorf("retried rebuild delay digest 0x%016x, want 0x%016x", gh, wh)
	}
}

// TestEcoDispatchPath pins that rebuilds flow through the dispatch
// coordinator: an injected first-attempt fault on a dirty shard is retried
// and the result is bitwise the fault-free rebuild (attempt counts are the
// only difference).
func TestEcoDispatchPath(t *testing.T) {
	in := ecoInstance(2000, 3)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	script := ecoScript(in, full.Parts)
	clean, err := full.Eco.Rebuild(script)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := full.Eco.RebuildDispatch(script, RebuildOptions{}, dispatch.Options{
		Faults: dispatch.NewFaultPlan().
			ErrorAt("shard", 0, 0, dispatch.MarkTransient(errors.New("injected eco fault"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Dispatch.Retries == 0 || faulty.Dispatch.FaultsInjected == 0 {
		t.Errorf("fault plan not exercised: %+v", faulty.Dispatch)
	}
	if math.Float64bits(faulty.Wirelength) != math.Float64bits(clean.Wirelength) {
		t.Errorf("faulted rebuild diverged: wire %v vs %v", faulty.Wirelength, clean.Wirelength)
	}
	if gh, rh := delayDigest(t, faulty.Root, faulty.Instance), delayDigest(t, clean.Root, clean.Instance); gh != rh {
		t.Errorf("faulted rebuild digest 0x%016x, want 0x%016x", gh, rh)
	}
}

// TestEcoTraceSpans pins the observability contract: a traced rebuild
// records the dirty/rebuild/retain/restitch/finalize/embed phases, one after
// another, covering at least 95% of its wall time; per-dirty-shard child
// traces; and an "adopt" child trace holding the one adopt span of the
// clean-shard thaw that overlaps the rebuild span, with its shard count.
// The rebuild takes a few milliseconds, so a host pause between two spans
// can cost it 5%; unspanned work would show in every one of three traced
// rebuilds, a pause in one.
func TestEcoTraceSpans(t *testing.T) {
	in := ecoInstance(2000, 3)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tr *obs.Trace
	var res *Result
	var sum *obs.Summary
	best := 0.0
	for try := 0; try < 3 && best < 0.95; try++ {
		tr = obs.New("eco")
		res, err = full.Eco.RebuildDispatch(ecoScript(in, full.Parts), RebuildOptions{Trace: tr}, dispatch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr.Close()
		sum = tr.Summary()
		cov := sum.CoveredMS / sum.WallMS
		if cov > 1 {
			t.Fatalf("top-level spans cover %.1f%% of wall time: they overlap (%s)", 100*cov, tr.Report())
		}
		best = max(best, cov)
	}
	if best < 0.95 {
		t.Errorf("top-level spans cover at best %.1f%% of wall time in three rebuilds, want ≥ 95%% (last: %s)", 100*best, tr.Report())
	}
	have := map[string]bool{}
	for _, p := range sum.Phases {
		have[p.Name] = true
	}
	for _, span := range []string{"dirty", "rebuild", "retain", "restitch", "finalize", "embed"} {
		if !have[span] {
			t.Errorf("rebuild trace missing span %q (have %v)", span, sum.Phases)
		}
	}
	if have["adopt"] {
		t.Errorf("adopt is a top-level span; it overlaps the rebuild span (have %v)", sum.Phases)
	}
	children := map[string]*obs.Trace{}
	for _, c := range tr.Children() {
		children[c.Label()] = c
	}
	for _, i := range res.EcoRebuilt {
		if children[fmt.Sprintf("shard%d", i)] == nil {
			t.Errorf("rebuild trace missing dirty-shard child shard%d (have %v)", i, tr.Children())
		}
	}
	if children["stitch"] == nil {
		t.Error("rebuild trace missing stitch child")
	}
	if v, ok := tr.MetricValue("eco_dirty_shards"); !ok || int(v) != len(res.EcoRebuilt) {
		t.Errorf("eco_dirty_shards metric = %v, %v; want %d", v, ok, len(res.EcoRebuilt))
	}

	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, children["adopt"]); err != nil {
		t.Fatalf("adopt child trace: %v", err)
	}
	var adopt struct {
		Spans []struct {
			Name  string             `json:"name"`
			Attrs map[string]float64 `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &adopt); err != nil {
		t.Fatal(err)
	}
	if len(adopt.Spans) != 1 || adopt.Spans[0].Name != "adopt" || int(adopt.Spans[0].Attrs["shards"]) != res.EcoReused {
		t.Errorf("adopt child trace spans %+v, want one adopt span of %d shards", adopt.Spans, res.EcoReused)
	}
}
