package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/order"
)

// hashDelays folds the bit patterns of every per-sink delay into one FNV-64a
// digest, in sink-ID order (the same digest as core's golden tests): any
// single-ULP drift in any sink's delay changes it.
func hashDelays(ds []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range ds {
		bits := math.Float64bits(d)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func delayDigest(t *testing.T, root *ctree.Node, in *ctree.Instance) uint64 {
	t.Helper()
	rep := eval.Analyze(root, in, core.DefaultModel(), in.Source)
	return hashDelays(rep.SinkDelay)
}

// withGOMAXPROCS runs f at GOMAXPROCS n, the merge wave's worker count,
// restoring the previous setting after.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestShardedMaxGroupSkewMatchesEval pins Result.MaxGroupSkew, read from the
// stitched root's delay set, to eval's measurement within 1e-9 relative on
// a piloted 4-shard build and on an ECO rebuild of it.
func TestShardedMaxGroupSkewMatchesEval(t *testing.T) {
	in := ecoInstance(2000, 4)
	full, err := BuildEco(in, core.Options{IntraSkewBound: 10, Shards: 4, Pilot: true}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eco, err := full.Eco.Rebuild(ecoScript(in, full.Parts))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		res  *Result
	}{{"piloted 4-shard build", full}, {"eco rebuild", eco}} {
		rep := eval.Analyze(r.res.Root, r.res.Instance, core.DefaultModel(), r.res.Instance.Source)
		if d := math.Abs(r.res.MaxGroupSkew - rep.MaxGroupSkew); d > 1e-9*rep.MaxGroupSkew {
			t.Errorf("%s: MaxGroupSkew %v ps, eval %v ps (|Δ| %.3g)", r.name, r.res.MaxGroupSkew, rep.MaxGroupSkew, d)
		}
		if over := rep.MaxGroupSkew > 10+1e-3; r.res.OverBound() != over { // 1e-3 ps of float noise
			t.Errorf("%s: OverBound %v at %v ps against the 10 ps bound", r.name, r.res.OverBound(), rep.MaxGroupSkew)
		}
	}
}

// TestShardsOneBitwiseIdentical pins the Shards=1 pipeline — partition,
// BuildSubtree over the full sink set, trivial stitch — bitwise to the
// unsharded core.Build under both merging strategies, ZST and
// grouped AST-DME: same wirelength bits, same per-sink delay digest.
func TestShardsOneBitwiseIdentical(t *testing.T) {
	zst := bench.Small(600, 21)
	grouped := bench.Intermingled(bench.Small(400, 33), 4, 99)
	for _, strategy := range []order.Strategy{order.Multi, order.Greedy} {
		for _, inst := range []struct {
			name string
			in   *ctree.Instance
			opt  core.Options
		}{
			{"zst", zst, core.Options{SingleGroup: true, Strategy: strategy}},
			{"grouped", grouped, core.Options{Strategy: strategy}},
		} {
			label := fmt.Sprintf("%s/strategy=%v", inst.name, strategy)
			ref, err := core.Build(inst.in, inst.opt)
			if err != nil {
				t.Fatalf("%s: unsharded: %v", label, err)
			}
			opt := inst.opt
			opt.Shards = 1
			got, err := Build(inst.in, opt)
			if err != nil {
				t.Fatalf("%s: sharded: %v", label, err)
			}
			if len(got.Shards) != 1 || got.Shards[0].Sinks != len(inst.in.Sinks) {
				t.Errorf("%s: shard layout %+v, want one full shard", label, got.Shards)
			}
			wb, rb := math.Float64bits(got.Wirelength), math.Float64bits(ref.Wirelength)
			if wb != rb {
				t.Errorf("%s: wirelength bits 0x%016x (%v), want 0x%016x (%v)",
					label, wb, got.Wirelength, rb, ref.Wirelength)
			}
			if gh, rh := delayDigest(t, got.Root, inst.in), delayDigest(t, ref.Root, inst.in); gh != rh {
				t.Errorf("%s: per-sink delay digest 0x%016x, want 0x%016x", label, gh, rh)
			}
			if got.Stats != ref.Stats {
				t.Errorf("%s: aggregate stats %+v, want unsharded %+v", label, got.Stats, ref.Stats)
			}
		}
	}
}

// wireEnvelope is the documented bound on sharded wirelength relative to the
// unsharded build: shards cannot merge across a cut below the top level, so
// sharding trades bounded extra wire for concurrency and partition locality.
// Measured on the 10k/50k uniform and power-law circuits at 2–8 shards the
// overhead stays under 4%; the envelope leaves headroom for seed drift.
const wireEnvelope = 1.08

// TestShardedZeroSkewAndWireEnvelope verifies, with the independent
// evaluator, that sharded zero-skew routes still meet the skew contract —
// the stitch merges shard roots under the same point windows as any
// same-group merge — and that their wirelength stays within the documented
// envelope of the unsharded build, on uniform and power-law placements.
func TestShardedZeroSkewAndWireEnvelope(t *testing.T) {
	sizes := []int{10_000, 50_000}
	if testing.Short() {
		sizes = []int{10_000}
	}
	for _, n := range sizes {
		for _, dist := range []string{"uniform", "powerlaw"} {
			var in *ctree.Instance
			if dist == "uniform" {
				in = bench.Small(n, 9)
			} else {
				in = bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, 9)
			}
			ref, err := core.ZST(in, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4, 8} {
				label := fmt.Sprintf("%s/n=%d/shards=%d", dist, n, k)
				res, err := Build(in, core.Options{SingleGroup: true, Shards: k})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := eval.CheckTree(res.Root, in); err != nil {
					t.Fatalf("%s: CheckTree: %v", label, err)
				}
				rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
				if rep.Sinks != n {
					t.Fatalf("%s: reached %d sinks", label, rep.Sinks)
				}
				if tol := 1e-6 * (1 + rep.MaxDelay); rep.GlobalSkew > tol {
					t.Errorf("%s: global skew %v ps exceeds %v", label, rep.GlobalSkew, tol)
				}
				if ratio := res.Wirelength / ref.Wirelength; ratio > wireEnvelope {
					t.Errorf("%s: wirelength ratio %.4f exceeds envelope %v", label, ratio, wireEnvelope)
				}
				if len(res.Shards) != k {
					t.Fatalf("%s: %d shard records", label, len(res.Shards))
				}
				var shardWire float64
				for i, si := range res.Shards {
					if si.Sinks == 0 {
						t.Errorf("%s: shard %d empty", label, i)
					}
					shardWire += si.Wirelength
				}
				if diff := math.Abs(res.Wirelength - res.SourceWire - shardWire - res.StitchWire); diff > 1e-6*res.Wirelength {
					t.Errorf("%s: wire accounting off by %v (total %v = shards %v + stitch %v + source %v)",
						label, diff, res.Wirelength, shardWire, res.StitchWire, res.SourceWire)
				}
				t.Logf("%s: wire ratio %.4f, stitch wire %.0f, scans %d", label,
					res.Wirelength/ref.Wirelength, res.StitchWire, res.Stats.PairScans)
			}
		}
	}
}

// TestShardedGroupedSkew runs the sharded pipeline on grouped AST-DME
// instances: groups span shards, so the stitch must re-align each group's
// per-shard delay intervals through its skew windows (snaking when
// independently built shards committed contradictory offsets). On difficult
// intermingled instances the router's residual-skew escape hatch
// (SneakUnresolved) already fires unsharded, so the eval-backed contract is
// relative: where the unsharded route effectively meets the bound, the
// sharded route must too; where it does not, sharding may degrade the
// residual by at most a bounded factor.
func TestShardedGroupedSkew(t *testing.T) {
	const bound = 50
	in := bench.Intermingled(bench.Small(1000, 5), 2, 41)
	ref, err := core.Build(in, core.Options{IntraSkewBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	refSkew := eval.Analyze(ref.Root, in, core.DefaultModel(), in.Source).MaxGroupSkew
	for _, k := range []int{2, 4} {
		label := fmt.Sprintf("shards=%d", k)
		res, err := Build(in, core.Options{IntraSkewBound: bound, Shards: k})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := eval.CheckTree(res.Root, in); err != nil {
			t.Fatalf("%s: CheckTree: %v", label, err)
		}
		rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
		// Absolute: within 10% of the bound (covers sub-ps float residue
		// and the small seam drift measured during development: ≤ 52 ps on
		// this instance at 2–4 shards, bound 50).
		if rep.MaxGroupSkew > 1.1*bound {
			t.Errorf("%s: intra-group skew %v ps exceeds bound %v (+10%%)", label, rep.MaxGroupSkew, bound)
		}
		// Relative: no more than 2× the unsharded residual beyond the bound.
		if over, refOver := rep.MaxGroupSkew-bound, refSkew-bound; over > 0 && over > 2*math.Max(refOver, 1) {
			t.Errorf("%s: bound overshoot %v ps vs unsharded %v ps", label, over, refOver)
		}
		t.Logf("%s: group skew %v (unsharded %v), unresolved %d (stitch %d)",
			label, rep.MaxGroupSkew, refSkew, res.Stats.SneakUnresolved, res.StitchStats.SneakUnresolved)
	}
}

// TestShardedDeterministicAcrossWorkers pins the Shards > 1 guarantee: the
// result is a pure function of (instance, options, k) — per-shard builds run
// on private registry clones and the stitch order is fixed, so no goroutine
// schedule can leak into the tree. Routing at GOMAXPROCS 1 and 4, which
// sets the merge wave's worker count (the shard goroutines themselves
// always run concurrently), must agree bitwise.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	for _, inst := range []struct {
		name string
		in   *ctree.Instance
		opt  core.Options
	}{
		{"zst", bench.Small(3000, 17), core.Options{SingleGroup: true}},
		{"grouped", bench.Intermingled(bench.Small(800, 23), 3, 55), core.Options{IntraSkewBound: 10}},
	} {
		opt := inst.opt
		opt.Shards = 4
		var wantWire, wantHash uint64
		for _, workers := range []int{1, 4} {
			var res *Result
			var err error
			withGOMAXPROCS(workers, func() { res, err = Build(inst.in, opt) })
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", inst.name, workers, err)
			}
			wire := math.Float64bits(res.Wirelength)
			hash := delayDigest(t, res.Root, inst.in)
			if workers == 1 {
				wantWire, wantHash = wire, hash
				continue
			}
			if wire != wantWire || hash != wantHash {
				t.Errorf("%s: workers=%d diverged: wire 0x%016x vs 0x%016x, digest 0x%016x vs 0x%016x",
					inst.name, workers, wire, wantWire, hash, wantHash)
			}
		}
	}
}

// TestShardsOffDelegates pins Shards=0 to the plain unsharded build with no
// shard records.
func TestShardsOffDelegates(t *testing.T) {
	in := bench.Small(200, 7)
	res, err := Build(in, core.Options{SingleGroup: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != nil {
		t.Errorf("Shards=0 produced shard records: %+v", res.Shards)
	}
	ref, err := core.ZST(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wirelength != ref.Wirelength {
		t.Errorf("delegated wirelength %v != core %v", res.Wirelength, ref.Wirelength)
	}
}

// TestShardErrors covers the argument validation of the sharded pipeline
// and core.Build's refusal to silently ignore Shards.
func TestShardErrors(t *testing.T) {
	in := bench.Small(40, 3)
	if _, err := Build(in, core.Options{SingleGroup: true, Shards: 41}); err == nil {
		t.Error("more shards than sinks accepted")
	}
	if _, err := Build(in, core.Options{SingleGroup: true, Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := core.Build(in, core.Options{SingleGroup: true, Shards: 2}); err == nil {
		t.Error("core.Build accepted Shards > 1 instead of directing to shard.Build")
	}
	if _, err := Build(&ctree.Instance{Name: "bad", NumGroups: 1}, core.Options{Shards: 2}); err == nil {
		t.Error("invalid instance accepted")
	}
	grouped := bench.Intermingled(in, 2, 5)
	if _, err := Build(grouped, core.Options{Pilot: true}); err == nil {
		t.Error("Pilot without Shards accepted (nothing to align)")
	}
	if _, err := Build(in, core.Options{SingleGroup: true, Pilot: true, Shards: 2}); err == nil {
		t.Error("Pilot + SingleGroup accepted")
	}
	if _, err := Build(grouped, core.Options{Pilot: true, Shards: 2,
		GroupOffsets: []float64{0, 1}}); err == nil {
		t.Error("Pilot + explicit GroupOffsets accepted")
	}
}
