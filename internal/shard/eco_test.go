package shard

import (
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/instio"
	"repro/internal/obs"
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
	in := ecoInstance(2000, 3)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Eco == nil || len(full.Eco.shards) != 4 {
		t.Fatalf("retained build carries no eco contract: %+v", full.Eco)
	}
	res, err := full.Eco.Rebuild(&instio.EditScript{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EcoRebuilt) != 0 || res.EcoReused != 4 {
		t.Errorf("noop rebuild re-routed %v, reused %d; want none, 4", res.EcoRebuilt, res.EcoReused)
	}
	if wb, rb := math.Float64bits(res.Wirelength), math.Float64bits(full.Wirelength); wb != rb {
		t.Errorf("noop rebuild wirelength bits 0x%016x, want 0x%016x", wb, rb)
	}
	if gh, rh := delayDigest(t, res.Root, in), delayDigest(t, full.Root, in); gh != rh {
		t.Errorf("noop rebuild delay digest 0x%016x, want 0x%016x", gh, rh)
	}
	if res.Eco == nil {
		t.Error("rebuild result does not chain an eco contract")
	}
	for i := range res.Shards {
		if res.Shards[i].Stats != full.Shards[i].Stats {
			t.Errorf("shard %d stats changed on a noop rebuild", i)
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
	// The chained cache carries pending leaf renumberings for the clean
	// shards (the script removed a sink); Marshal must apply them when it
	// encodes the disk format, and a rebuild from the round-tripped bytes must match
	// the in-process chained rebuild bit for bit.
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
	// still an exact cover, so it decodes; the shard blobs no longer match it,
	// which the first rebuild to adopt them must reject.
	p0, p1 := append([]int(nil), full.Parts[0]...), append([]int(nil), full.Parts[1]...)
	p0[0], p1[0] = p1[0], p0[0]
	traded := *full.Eco
	traded.Parts = append([][]int{p0, p1}, full.Parts[2:]...)
	tradedBlob, err := traded.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tradedCache, err := UnmarshalEcoCache(tradedBlob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tradedCache.Rebuild(&instio.EditScript{}); err == nil {
		t.Error("cache whose shard subtrees disagree with its partition accepted")
	}
}

// TestEcoFrozenChainMatchesRoundTrip pins the in-memory frozen path against
// the process boundary over a 20-hop seeded chain of 0.1% edit scripts: at
// every hop, rebuilding from the chained cache (clean shards thawed from
// their snapshots through composed pending renumberings) is bitwise the
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

// BenchmarkEcoHop measures one incremental rebuild: a 0.1% edit script
// against the retained cache of a grouped piloted 10k build at 8 shards.
// Every iteration rebuilds from the same cache, which stays reusable.
func BenchmarkEcoHop(b *testing.B) {
	in := ecoInstance(10_000, 4)
	full, err := BuildEco(in, core.Options{Shards: 8, Pilot: true}, dispatch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	script, err := instio.Perturb(in, 0.001, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := full.Eco.Rebuild(script); err != nil {
			b.Fatal(err)
		}
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
// records the dirty/rebuild/adopt/retain/restitch/finalize phases and
// per-dirty-shard child traces.
func TestEcoTraceSpans(t *testing.T) {
	in := ecoInstance(2000, 3)
	full, err := BuildEco(in, core.Options{Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("eco")
	res, err := full.Eco.RebuildDispatch(ecoScript(in, full.Parts), RebuildOptions{Trace: tr}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	have := map[string]bool{}
	for _, p := range tr.Summary().Phases {
		have[p.Name] = true
	}
	for _, span := range []string{"dirty", "rebuild", "adopt", "retain", "restitch", "finalize"} {
		if !have[span] {
			t.Errorf("rebuild trace missing span %q (have %v)", span, tr.Summary().Phases)
		}
	}
	children := map[string]bool{}
	for _, c := range tr.Children() {
		children[c.Label()] = true
	}
	for _, i := range res.EcoRebuilt {
		if !children[fmt.Sprintf("shard%d", i)] {
			t.Errorf("rebuild trace missing dirty-shard child shard%d (have %v)", i, tr.Children())
		}
	}
	if !children["stitch"] {
		t.Error("rebuild trace missing stitch child")
	}
	if v, ok := tr.MetricValue("eco_dirty_shards"); !ok || int(v) != len(res.EcoRebuilt) {
		t.Errorf("eco_dirty_shards metric = %v, %v; want %d", v, ok, len(res.EcoRebuilt))
	}
}
