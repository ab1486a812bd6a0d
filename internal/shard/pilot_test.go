package shard

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/eval"
)

// TestPilotSampleContract pins one patch route's sample contract: a compact
// core patch plus coverage of every group, sorted and duplicate-free, near
// the requested size, deterministic, and degenerating to the full ID set
// when the patch size reaches the instance. Clustered groupings exercise
// the coverage patches: a compact patch inside one of 6 spatially confined
// groups cannot reach the other five on its own.
func TestPilotSampleContract(t *testing.T) {
	for _, mk := range []struct {
		name string
		in   *ctree.Instance
	}{
		{"intermingled", bench.Intermingled(bench.PowerLaw(3000, bench.PowerLawClusters, bench.PowerLawAlpha, 11), 5, 77)},
		{"clustered", bench.Clustered(bench.Small(3000, 11), 6)},
	} {
		in := mk.in
		parts := Partition(in, pilotPatches)
		for p, part := range parts {
			ids := pilotPatchSample(in, part, pilotPatchSinks)
			if len(ids) < pilotPatchSinks || len(ids) > pilotPatchSinks+in.NumGroups*pilotGroupPatch {
				t.Errorf("%s/patch=%d: sample size %d outside [%d, %d]", mk.name, p, len(ids),
					pilotPatchSinks, pilotPatchSinks+in.NumGroups*pilotGroupPatch)
			}
			covered := make([]bool, in.NumGroups)
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("%s/patch=%d: sample not sorted/unique at %d: %d, %d", mk.name, p, i, ids[i-1], id)
				}
				covered[in.Sinks[id].Group] = true
			}
			for g, ok := range covered {
				if !ok {
					t.Errorf("%s/patch=%d: group %d not represented in the sample", mk.name, p, g)
				}
			}
			// Determinism: same inputs, same sample.
			again := pilotPatchSample(in, part, pilotPatchSinks)
			if len(again) != len(ids) {
				t.Fatalf("%s/patch=%d: sample size changed across calls: %d vs %d", mk.name, p, len(again), len(ids))
			}
			for i := range ids {
				if again[i] != ids[i] {
					t.Fatalf("%s/patch=%d: sample not deterministic at %d: %d vs %d", mk.name, p, i, again[i], ids[i])
				}
			}
		}
		all := pilotPatchSample(in, parts[0], len(in.Sinks))
		if len(all) != len(in.Sinks) {
			t.Errorf("%s: patch size = n returned %d ids, want all %d", mk.name, len(all), len(in.Sinks))
		}
	}
}

// groupedInstance builds the grouped seam-skew instances: an Intermingled
// grouping (the thesis's difficult case — every group spans every shard) over
// uniform and power-law placements.
func groupedInstance(dist string, n int, groups int) *ctree.Instance {
	var base *ctree.Instance
	if dist == "uniform" {
		base = bench.Small(n, 9)
	} else {
		base = bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, 9)
	}
	return bench.Intermingled(base, groups, 9000+int64(n))
}

// TestPilotSeamSkewImproves is the pilot pass's acceptance test: on grouped
// 10k (and 50k, unless -short) instances at 2/4/8 shards, prescribing the
// pilot's offset contract to every shard must not worsen — and in aggregate
// must strictly improve — the residual intra-group skew across shard seams,
// while wirelength stays within the sharded envelope of the unsharded build.
func TestPilotSeamSkewImproves(t *testing.T) {
	sizes := []int{10_000}
	if !testing.Short() {
		sizes = append(sizes, 50_000)
	}
	var unpilotedSum, pilotedSum float64
	for _, n := range sizes {
		shardCounts := []int{2, 4, 8}
		for _, dist := range []string{"uniform", "powerlaw"} {
			in := groupedInstance(dist, n, 4)
			ref, err := core.Build(in, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range shardCounts {
				label := fmt.Sprintf("%s/n=%d/shards=%d", dist, n, k)
				seam := map[bool]float64{}
				for _, pilot := range []bool{false, true} {
					res, err := Build(in, core.Options{Shards: k, Pilot: pilot})
					if err != nil {
						t.Fatalf("%s/pilot=%v: %v", label, pilot, err)
					}
					if err := eval.CheckTree(res.Root, in); err != nil {
						t.Fatalf("%s/pilot=%v: CheckTree: %v", label, pilot, err)
					}
					rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
					_, seam[pilot] = eval.SeamSkew(rep, in, res.Parts)
					if ratio := res.Wirelength / ref.Wirelength; ratio > wireEnvelope {
						t.Errorf("%s/pilot=%v: wirelength ratio %.4f exceeds envelope %v", label, pilot, ratio, wireEnvelope)
					}
					if pilot {
						if res.PilotSinks <= 0 || res.PilotOffsets == nil {
							t.Errorf("%s: pilot ran but reported %d sinks, offsets %v", label, res.PilotSinks, res.PilotOffsets)
						}
						if res.PilotStats.Merges <= 0 {
							t.Errorf("%s: pilot stats empty: %+v", label, res.PilotStats)
						}
					} else if res.PilotSinks != 0 || res.PilotOffsets != nil {
						t.Errorf("%s: unpiloted build reports pilot work (%d sinks)", label, res.PilotSinks)
					}
				}
				// Pointwise: the pilot must never degrade the seam residual
				// (tolerance covers float residue on already-zero seams).
				if tol := 1e-6 * (1 + seam[false]); seam[true] > seam[false]+tol {
					t.Errorf("%s: piloted seam skew %v ps exceeds unpiloted %v ps", label, seam[true], seam[false])
				}
				unpilotedSum += seam[false]
				pilotedSum += seam[true]
				t.Logf("%s: seam skew %v -> %v ps", label, seam[false], seam[true])
			}
		}
	}
	// Aggregate: the pass must actually buy something, not just tie.
	if pilotedSum >= unpilotedSum {
		t.Errorf("pilot did not improve aggregate seam skew: %v ps (piloted) vs %v ps (unpiloted)", pilotedSum, unpilotedSum)
	}
}

// TestPilotFullSampleDegenerates pins the tiny-instance path: when the
// patch size reaches the instance, the first sample degenerates to the full
// sink set, whose route commits the exact contract — the pass must use that
// single estimate and stop, not route the identical full sample once per
// patch (or let earlier partial patches outvote it).
func TestPilotFullSampleDegenerates(t *testing.T) {
	in := bench.Intermingled(bench.Small(120, 13), 3, 7)
	res, err := Build(in, core.Options{Shards: 2, Pilot: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PilotSinks != len(in.Sinks) {
		t.Errorf("pilot routed %d sinks, want exactly one full route of %d", res.PilotSinks, len(in.Sinks))
	}
	if len(res.PilotOffsets) != in.NumGroups {
		t.Errorf("pilot offsets %v, want %d entries", res.PilotOffsets, in.NumGroups)
	}
}

// TestPilotDeterministicAcrossWorkers extends the Shards > 1 determinism
// guarantee to the piloted pipeline: the pilot sample, the pilot route, the
// prescribed offsets, and the aligned shard builds are all pure functions of
// (instance, options, k), so the merge wave's worker count (GOMAXPROCS)
// cannot leak into the tree.
func TestPilotDeterministicAcrossWorkers(t *testing.T) {
	in := bench.Intermingled(bench.Small(3000, 17), 3, 55)
	opt := core.Options{Shards: 4, Pilot: true}
	var wantWire, wantHash uint64
	var wantOffs []float64
	for _, workers := range []int{1, 4} {
		var res *Result
		var err error
		withGOMAXPROCS(workers, func() { res, err = Build(in, opt) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		wire := math.Float64bits(res.Wirelength)
		hash := delayDigest(t, res.Root, in)
		if workers == 1 {
			wantWire, wantHash, wantOffs = wire, hash, res.PilotOffsets
			continue
		}
		if wire != wantWire || hash != wantHash {
			t.Errorf("workers=%d diverged: wire 0x%016x vs 0x%016x, digest 0x%016x vs 0x%016x",
				workers, wire, wantWire, hash, wantHash)
		}
		if len(res.PilotOffsets) != len(wantOffs) {
			t.Fatalf("workers=%d: %d pilot offsets vs %d", workers, len(res.PilotOffsets), len(wantOffs))
		}
		for g, o := range res.PilotOffsets {
			if math.Float64bits(o) != math.Float64bits(wantOffs[g]) {
				t.Errorf("workers=%d: pilot offset[%d] = %v vs %v", workers, g, o, wantOffs[g])
			}
		}
	}
}

// TestPilotedShardGolden pins one piloted 4-shard build absolutely: 4k
// power-law sinks (32 clusters, alpha 1.5, placement seed 1100) in 4
// intermingled groups at B = 0, the build dmebench's sharded-difficult
// workload routes at seed 11. The pilot's patch routes are unprescribed, so
// they run the deferred-split search; the shard identity tests compare
// builds with each other and would not see that search move the contract.
// The wirelength bits, the per-sink delay digest and every pilot offset's
// bits were recorded at commit 277ff92.
func TestPilotedShardGolden(t *testing.T) {
	in := bench.Intermingled(bench.PowerLaw(4000, bench.PowerLawClusters, bench.PowerLawAlpha, 1100), 4, 11)
	res, err := Build(in, core.Options{Shards: 4, Pilot: true})
	if err != nil {
		t.Fatal(err)
	}
	const wantWire, wantHash = uint64(0x4164be821abec86b), uint64(0xa627761a9c4b1d10)
	wantOffs := []uint64{0, 0x3fd3efc27b647798, 0xbfb8325ebe80db40, 0x3fbd8eccd904cedd}
	if bits := math.Float64bits(res.Wirelength); bits != wantWire {
		t.Errorf("wirelength bits 0x%016x (%v), want 0x%016x", bits, res.Wirelength, wantWire)
	}
	if h := delayDigest(t, res.Root, in); h != wantHash {
		t.Errorf("per-sink delay digest 0x%016x, want 0x%016x", h, wantHash)
	}
	if len(res.PilotOffsets) != len(wantOffs) {
		t.Fatalf("%d pilot offsets, want %d", len(res.PilotOffsets), len(wantOffs))
	}
	for g, o := range res.PilotOffsets {
		if bits := math.Float64bits(o); bits != wantOffs[g] {
			t.Errorf("pilot offset[%d] bits 0x%016x (%v), want 0x%016x", g, bits, o, wantOffs[g])
		}
	}
}

// TestShardPairerThresholdKeepsGrid is the regression test for the per-shard
// PairerAuto fallback: a 10k-sink run at 8 shards puts ~1250 sinks in each
// shard, and each shard must select the grid. The scan oracle's very first
// round alone evaluates n(n−1)/2 candidate pairs, so a per-shard scan
// count below an eighth of that is only reachable by the grid engine.
func TestShardPairerThresholdKeepsGrid(t *testing.T) {
	in := bench.Small(10_000, 9)
	res, err := Build(in, core.Options{SingleGroup: true, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, si := range res.Shards {
		n := int64(si.Sinks)
		oracleRound := n * (n - 1) / 2
		if si.Stats.PairScans >= oracleRound/8 {
			t.Errorf("shard %d (%d sinks): %d pair scans — at oracle scale (first round alone is %d); grid not selected",
				i, si.Sinks, si.Stats.PairScans, oracleRound)
		}
	}
}

// TestShardedGroupedWireAccounting pins the shard/stitch wire attribution on
// grouped multi-shard runs, where the stitch both resolves deferred shard
// roots and sneaks wire inside shard subtrees: per-shard wire is measured
// after the stitch, StitchWire is the stitch-created nodes' wire alone, the
// split sums exactly to the total, and StitchWire can never be negative.
func TestShardedGroupedWireAccounting(t *testing.T) {
	in := bench.Intermingled(bench.Small(4000, 5), 4, 41)
	for _, pilot := range []bool{false, true} {
		label := fmt.Sprintf("pilot=%v", pilot)
		res, err := Build(in, core.Options{Shards: 4, Pilot: pilot})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.StitchWire < 0 {
			t.Errorf("%s: negative stitch wire %v", label, res.StitchWire)
		}
		var shardWire float64
		for _, si := range res.Shards {
			if si.Wirelength < 0 {
				t.Errorf("%s: negative shard wire %v", label, si.Wirelength)
			}
			shardWire += si.Wirelength
		}
		if diff := math.Abs(res.Wirelength - res.SourceWire - shardWire - res.StitchWire); diff > 1e-6*res.Wirelength {
			t.Errorf("%s: wire accounting off by %v (total %v = shards %v + stitch %v + source %v)",
				label, diff, res.Wirelength, shardWire, res.StitchWire, res.SourceWire)
		}
	}
}
