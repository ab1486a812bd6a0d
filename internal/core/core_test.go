package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/rctree"
)

// route builds and returns the measured report for an instance.
func route(t *testing.T, in *ctree.Instance, opt Options) (*Result, *eval.Report) {
	t.Helper()
	res, err := Build(in, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := eval.CheckTree(res.Root, in); err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	m := opt.Model
	if m == nil {
		m = DefaultModel()
	}
	rep := eval.Analyze(res.Root, in, m, in.Source)
	if math.Abs(rep.TotalWire-res.Wirelength) > 1e-6*(1+res.Wirelength) {
		t.Fatalf("wirelength mismatch: eval %v vs result %v", rep.TotalWire, res.Wirelength)
	}
	return res, rep
}

func TestZSTExactZeroSkew(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{2, 3, 10, 60} {
			in := bench.Small(n, seed)
			_, rep := route(t, in, Options{SingleGroup: true})
			if rep.Sinks != n {
				t.Fatalf("n=%d: reached %d sinks", n, rep.Sinks)
			}
			if rep.GlobalSkew > 1e-6*(1+rep.MaxDelay) {
				t.Errorf("n=%d seed=%d: ZST skew = %v ps (max delay %v)", n, seed, rep.GlobalSkew, rep.MaxDelay)
			}
		}
	}
}

func TestEXTBSTRespectsBound(t *testing.T) {
	for _, bound := range []float64{0, 5, 10, 50} {
		in := bench.Small(80, 4)
		res, err := EXTBST(in, bound, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
		if rep.GlobalSkew > bound+1e-6*(1+bound+rep.MaxDelay) {
			t.Errorf("bound %v: skew %v", bound, rep.GlobalSkew)
		}
	}
}

func TestBSTWirelenDecreasesWithBound(t *testing.T) {
	// Larger skew bounds must not cost more wire. Per-instance results
	// wobble a few percent (greedy order, grid-resolved splits), so compare
	// seed aggregates with a loose monotonicity tolerance and require a
	// clear overall drop from exact zero skew to a nearly-unbounded skew.
	seeds := []int64{3, 9, 21, 33, 45}
	total := func(bound float64) float64 {
		var sum float64
		for _, seed := range seeds {
			res, err := EXTBST(bench.Small(120, seed), bound, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Wirelength
		}
		return sum
	}
	bounds := []float64{0, 10, 50, 200, 1000}
	prevMin := math.Inf(1)
	var first, last float64
	for i, bd := range bounds {
		w := total(bd)
		if i == 0 {
			first = w
		}
		last = w
		if w > prevMin*1.05 {
			t.Errorf("bound %v: aggregate wire %v well above previous best %v", bd, w, prevMin)
		}
		prevMin = math.Min(prevMin, w)
	}
	if last >= first {
		t.Errorf("unbounded skew wire %v not below zero-skew wire %v", last, first)
	}
}

func TestASTZeroIntraGroupSkew(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		for _, seed := range []int64{1, 5, 9} {
			in := bench.Intermingled(bench.Small(90, seed), k, seed*31)
			res, rep := route(t, in, Options{})
			tol := 1e-6 * (1 + rep.MaxDelay)
			if res.Stats.SneakUnresolved == 0 && rep.MaxGroupSkew > tol {
				t.Errorf("k=%d seed=%d: intra-group skew %v ps (stats %v)",
					k, seed, rep.MaxGroupSkew, res.Stats)
			}
			// Even with unresolved sneaks the residual must stay tiny
			// relative to total delay.
			if rep.MaxGroupSkew > 0.02*(1+rep.MaxDelay) {
				t.Errorf("k=%d seed=%d: excessive intra-group skew %v (max delay %v)",
					k, seed, rep.MaxGroupSkew, rep.MaxDelay)
			}
		}
	}
}

func TestASTCompetitiveWithEXTBSTOnIntermingled(t *testing.T) {
	// AST-DME relaxes EXT-BST's inter-group constraints, so across seeds its
	// wirelength should track EXT-BST closely (the heuristics do not
	// guarantee per-instance dominance). Assert the aggregate stays within a
	// few percent and never degenerates.
	var astSum, extSum float64
	for _, seed := range []int64{3, 4, 5, 6} {
		in0 := bench.Small(150, seed)
		ext, err := EXTBST(in0, 10, Options{})
		if err != nil {
			t.Fatal(err)
		}
		in := bench.Intermingled(in0, 6, 77*seed)
		ast, err := Build(in, Options{IntraSkewBound: 10})
		if err != nil {
			t.Fatal(err)
		}
		astSum += ast.Wirelength
		extSum += ext.Wirelength
	}
	if astSum > extSum*1.08 {
		t.Errorf("AST-DME aggregate wire %v far above EXT-BST %v", astSum, extSum)
	}
}

func TestASTSingleGroupMatchesZST(t *testing.T) {
	// With one group, AST-DME must behave exactly like zero-skew DME.
	in := bench.Small(70, 8) // NumGroups = 1
	ast, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zst, err := ZST(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ast.Wirelength-zst.Wirelength) > 1e-9*(1+zst.Wirelength) {
		t.Errorf("AST(1 group) wire %v != ZST wire %v", ast.Wirelength, zst.Wirelength)
	}
	if ast.Stats.CrossGroup != 0 || ast.Stats.Shared != 0 {
		t.Errorf("single-group AST saw cross/shared merges: %v", ast.Stats)
	}
}

func TestASTBoundedIntraGroup(t *testing.T) {
	in := bench.Intermingled(bench.Small(80, 12), 3, 5)
	res, err := Build(in, Options{IntraSkewBound: 20})
	if err != nil {
		t.Fatal(err)
	}
	rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
	// Exact enforcement is promised only when every window conflict was
	// reconciled; unresolved conflicts degrade gracefully (bounded leakage).
	allow := 20 + 1e-6*(20+rep.MaxDelay)
	if res.Stats.SneakUnresolved > 0 {
		allow = 2*20 + 0.01*rep.MaxDelay
	}
	if rep.MaxGroupSkew > allow {
		t.Errorf("intra-group skew %v exceeds allowance %v (stats %v)", rep.MaxGroupSkew, allow, res.Stats)
	}
	res0, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wirelength > res0.Wirelength*1.05 {
		t.Errorf("bounded intra-group wire %v far above zero-bound wire %v", res.Wirelength, res0.Wirelength)
	}
}

func TestMergeDifferentGroupsUsesSDR(t *testing.T) {
	// Two sinks from different groups: the merge costs exactly their
	// distance and the merge region spans between them (thesis Fig. 3).
	in := &ctree.Instance{
		Name: "fig3",
		Sinks: []ctree.Sink{
			{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 10, Group: 0},
			{ID: 1, Loc: geom.Point{X: 30, Y: 40}, CapFF: 10, Group: 1},
		},
		Source:    geom.Point{X: 0, Y: 0},
		NumGroups: 2,
	}
	res, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CrossGroup != 1 {
		t.Fatalf("stats: %v", res.Stats)
	}
	wantTree := 70.0 // Manhattan distance, no snaking allowed for free merges
	if math.Abs(res.Root.Wirelength()-wantTree) > 1e-9 {
		t.Errorf("tree wire = %v, want %v", res.Root.Wirelength(), wantTree)
	}
	if res.Stats.MergeSnakes != 0 {
		t.Error("cross-group merge snaked")
	}
}

func TestSharedInstance1GroupUnion(t *testing.T) {
	// Thesis Fig. 4: Ta,Td from G1; Tb from G2; Te from G3. After merging
	// (Ta,Tb) and (Td,Te), merging the results must equalize G1's delays,
	// and the final tree must hold zero skew within G1.
	in := &ctree.Instance{
		Name: "fig4",
		Sinks: []ctree.Sink{
			{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 10, Group: 0},   // a ∈ G1
			{ID: 1, Loc: geom.Point{X: 10, Y: 0}, CapFF: 10, Group: 1},  // b ∈ G2
			{ID: 2, Loc: geom.Point{X: 100, Y: 0}, CapFF: 10, Group: 0}, // d ∈ G1
			{ID: 3, Loc: geom.Point{X: 110, Y: 0}, CapFF: 10, Group: 2}, // e ∈ G3
		},
		Source:    geom.Point{X: 55, Y: 0},
		NumGroups: 3,
	}
	res, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
	if rep.GroupSkew[0] > 1e-9*(1+rep.MaxDelay) {
		t.Errorf("G1 skew = %v", rep.GroupSkew[0])
	}
	if res.Stats.Shared == 0 {
		t.Errorf("expected a partially-shared merge, stats %v", res.Stats)
	}
}

func TestSharedInstance2WireSneaking(t *testing.T) {
	// Thesis Fig. 5: Ta,Td ∈ G1 and Tb,Te ∈ G2 with both groups shared at
	// the final merge. Arrange asymmetric distances so the two groups'
	// feasible windows conflict, forcing wire sneaking — and verify both
	// groups still end at (near-)zero skew.
	in := &ctree.Instance{
		Name: "fig5",
		Sinks: []ctree.Sink{
			{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 10, Group: 0},   // a
			{ID: 1, Loc: geom.Point{X: 40, Y: 0}, CapFF: 10, Group: 1},  // b
			{ID: 2, Loc: geom.Point{X: 300, Y: 0}, CapFF: 10, Group: 0}, // d
			{ID: 3, Loc: geom.Point{X: 460, Y: 0}, CapFF: 10, Group: 1}, // e
		},
		Source:    geom.Point{X: 200, Y: 0},
		NumGroups: 2,
	}
	res, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
	tol := 1e-6 * (1 + rep.MaxDelay)
	if rep.MaxGroupSkew > tol {
		t.Errorf("intra-group skew %v after sneaking (stats %v)", rep.MaxGroupSkew, res.Stats)
	}
	if res.Stats.SneakEvents == 0 {
		t.Logf("note: windows did not conflict (stats %v); geometry may allow direct solve", res.Stats)
	}
}

// TestEndpointSplitAblationValid routes with EndpointSplit: a small
// instance at B = 0 keeps its groups near zero skew, and every Table I and
// II row (r1–r5 in 4, 6, 8 and 10 groups, clustered and intermingled, the
// latter under the grouping seed experiments.Tables draws first) meets the
// paper's 10 ps bound, by the router's own reading and by eval's. These 40
// rows are what the offset leash is kept at B for: no wider window and no
// removal of the leash met B on all of them, by either split rule.
func TestEndpointSplitAblationValid(t *testing.T) {
	in := bench.Intermingled(bench.Small(60, 6), 3, 4)
	res, err := Build(in, Options{EndpointSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
	if rep.MaxGroupSkew > 0.05*(1+rep.MaxDelay) {
		t.Errorf("intra-group skew %v with endpoint split", rep.MaxGroupSkew)
	}

	const bound = 10
	for _, sp := range bench.Suite() {
		base := bench.Generate(sp)
		for _, k := range []int{4, 6, 8, 10} {
			for _, in := range []*ctree.Instance{
				bench.Clustered(base, k),
				bench.Intermingled(base, k, sp.Seed*1000+int64(k)),
			} {
				res, rep := route(t, in, Options{IntraSkewBound: bound, EndpointSplit: true})
				if res.OverBound() || rep.MaxGroupSkew > bound+skewNoisePs {
					t.Errorf("%s: group skew %v ps (router %v ps) over the %v ps bound",
						in.Name, rep.MaxGroupSkew, res.MaxGroupSkew, bound)
				}
			}
		}
	}
}

func TestLinearModelZST(t *testing.T) {
	in := bench.Small(30, 3)
	res, err := ZST(in, Options{Model: rctree.Linear{}})
	if err != nil {
		t.Fatal(err)
	}
	rep := eval.Analyze(res.Root, in, rctree.Linear{}, in.Source)
	if rep.GlobalSkew > 1e-6*(1+rep.MaxDelay) {
		t.Errorf("linear ZST skew %v", rep.GlobalSkew)
	}
}

func TestSingleSinkInstance(t *testing.T) {
	in := &ctree.Instance{
		Name:      "one",
		Sinks:     []ctree.Sink{{ID: 0, Loc: geom.Point{X: 3, Y: 4}, CapFF: 10}},
		Source:    geom.Point{X: 0, Y: 0},
		NumGroups: 1,
	}
	res, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wirelength != 7 {
		t.Errorf("wire = %v, want 7 (source to sink)", res.Wirelength)
	}
}

func TestInvalidInstanceRejected(t *testing.T) {
	in := &ctree.Instance{Name: "bad", NumGroups: 1}
	if _, err := Build(in, Options{}); err == nil {
		t.Error("empty instance accepted")
	}
}

// TestPrescribedGroupOffsets pins the explicit form of the inter-group
// skew contract (the thesis's Ch. II S_{i,j}, "specified explicitly"):
// under a prescribed GroupOffsets vector every group routes within B, every
// sink pair of groups i and j differs by GroupOffsets[j] − GroupOffsets[i]
// within ±B, and no merge is left unresolved — on intermingled instances
// over four seeds, k ∈ {3, 4, 6} and B ∈ {0, 10}.
func TestPrescribedGroupOffsets(t *testing.T) {
	const tol = 1e-6 // ps
	// S_{0,g} per instance; a k-group row takes the first k entries.
	vectors := [][]float64{
		{0, 80, -40, 25, -65, 130},
		{0, -15, 30, -45, 60, -75},
		{0, 200, 100, -150, 50, -250},
	}
	for si, sp := range []struct {
		sinks int
		seed  int64
	}{{90, 14}, {200, 3}, {400, 27}, {1000, 5}} {
		for _, k := range []int{3, 4, 6} {
			in := bench.Intermingled(bench.Small(sp.sinks, sp.seed), k, sp.seed+int64(k))
			offs := vectors[si%len(vectors)][:k]
			for _, bound := range []float64{0, 10} {
				label := fmt.Sprintf("n=%d seed=%d k=%d B=%v", sp.sinks, sp.seed, k, bound)
				res, err := Build(in, Options{IntraSkewBound: bound, GroupOffsets: offs})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Stats.SneakUnresolved != 0 {
					t.Errorf("%s: %d unresolved merges", label, res.Stats.SneakUnresolved)
				}
				rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
				lo := make([]float64, k)
				hi := make([]float64, k)
				for g := range lo {
					lo[g], hi[g] = math.Inf(1), math.Inf(-1)
				}
				for _, s := range in.Sinks {
					d := rep.SinkDelay[s.ID]
					lo[s.Group], hi[s.Group] = min(lo[s.Group], d), max(hi[s.Group], d)
				}
				for i := 0; i < k; i++ {
					if skew := hi[i] - lo[i]; skew > bound+tol {
						t.Errorf("%s: group %d skew %.9g ps over B", label, i, skew)
					}
					for j := i + 1; j < k; j++ {
						target := offs[j] - offs[i]
						if dLo, dHi := lo[j]-hi[i], hi[j]-lo[i]; dLo < target-bound-tol || dHi > target+bound+tol {
							t.Errorf("%s: G%d − G%d over sink pairs in [%.9g, %.9g] ps, want %g ± %g",
								label, j, i, dLo, dHi, target, bound)
						}
					}
				}
			}
		}
	}
}

func TestPrescribedGroupOffsetsValidation(t *testing.T) {
	in := bench.Intermingled(bench.Small(20, 1), 2, 1)
	if _, err := Build(in, Options{GroupOffsets: []float64{0}}); err == nil {
		t.Error("wrong length accepted")
	}
	if _, err := Build(in, Options{GroupOffsets: []float64{5, 0}}); err == nil {
		t.Error("non-zero reference accepted")
	}
	if _, err := Build(in, Options{SingleGroup: true, GroupOffsets: []float64{0, 1}}); err == nil {
		t.Error("SingleGroup with offsets accepted")
	}
}

// TestRegistryOffsets pins the offset-extraction contract of the sharded
// pipeline's pilot pass: a registry whose build committed offsets resolves
// every group against group 0 in the GroupOffsets form; prescribing those
// offsets to a fresh registry round-trips bitwise; and a registry with
// unrelated groups reports an error instead of fabricating a contract.
func TestRegistryOffsets(t *testing.T) {
	in := bench.Intermingled(bench.Small(300, 7), 4, 21)
	reg, err := NewRegistry(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Offsets(); err == nil {
		t.Error("fresh registry (no committed offsets) returned a contract, want error")
	}
	sub, err := BuildSubtree(in.SinkList(nil), in.NumGroups, Options{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeRoots([]*ctree.Node{sub.Root}, in.NumGroups, in.Source, Options{}, reg); err != nil {
		t.Fatal(err)
	}
	offs, err := reg.Offsets()
	if err != nil {
		t.Fatalf("Offsets after a full build: %v", err)
	}
	if len(offs) != in.NumGroups || offs[0] != 0 {
		t.Fatalf("offsets %v: want %d entries with entry 0 == 0", offs, in.NumGroups)
	}
	round, err := NewRegistry(in, Options{GroupOffsets: offs})
	if err != nil {
		t.Fatalf("NewRegistry(Offsets()): %v", err)
	}
	if round.PreUnions() != in.NumGroups-1 {
		t.Errorf("round-trip registry registered %d pre-unions, want %d", round.PreUnions(), in.NumGroups-1)
	}
	got, err := round.Offsets()
	if err != nil {
		t.Fatalf("round-trip Offsets: %v", err)
	}
	for g := range offs {
		if math.Float64bits(got[g]) != math.Float64bits(offs[g]) {
			t.Errorf("offset[%d] did not round-trip: %v vs %v", g, got[g], offs[g])
		}
	}
}

// TestPilotOptionRejections pins the flag-compatibility rules of the pilot
// offset pass: core.Build refuses it outright (it lives in shard.Build), and
// it cannot combine with SingleGroup or an explicit GroupOffsets contract.
func TestPilotOptionRejections(t *testing.T) {
	in := bench.Intermingled(bench.Small(40, 3), 2, 5)
	if _, err := Build(in, Options{Pilot: true}); err == nil {
		t.Error("core.Build accepted Pilot instead of directing to shard.Build")
	}
	if _, err := NewRegistry(in, Options{Pilot: true, SingleGroup: true}); err == nil {
		t.Error("Pilot + SingleGroup accepted")
	}
	if _, err := NewRegistry(in, Options{Pilot: true, GroupOffsets: []float64{0, 1}}); err == nil {
		t.Error("Pilot + explicit GroupOffsets accepted")
	}
}

// TestOptionValueValidation pins normalizeOptions' value checks on every
// entry point that runs it (Build, BuildSubtree, MergeRoots): a non-finite
// bound or prescribed offset and a negative skew bound are rejected, in
// SingleGroup mode too, and a finite bound routes.
func TestOptionValueValidation(t *testing.T) {
	in := bench.Intermingled(bench.Small(30, 2), 3, 2)
	nan, inf := math.NaN(), math.Inf(1)
	freshRegistry := func() *Registry {
		reg, err := NewRegistry(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	entries := []struct {
		name string
		run  func(Options) error
	}{
		{"Build", func(o Options) error {
			_, err := Build(in, o)
			return err
		}},
		{"BuildSubtree", func(o Options) error {
			_, err := BuildSubtree(in.SinkList(nil), in.NumGroups, o, freshRegistry())
			return err
		}},
		{"MergeRoots", func(o Options) error {
			reg := freshRegistry()
			sub, err := BuildSubtree(in.SinkList(nil), in.NumGroups, Options{}, reg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = MergeRoots([]*ctree.Node{sub.Root}, in.NumGroups, in.Source, o, reg)
			return err
		}},
	}
	for _, tc := range []struct {
		name string
		opt  Options
		ok   bool
	}{
		{"NaN IntraSkewBound", Options{IntraSkewBound: nan}, false},
		{"+Inf IntraSkewBound", Options{IntraSkewBound: inf}, false},
		{"negative IntraSkewBound", Options{IntraSkewBound: -5}, false},
		{"NaN SingleGroup IntraSkewBound", Options{SingleGroup: true, IntraSkewBound: nan}, false},
		{"negative SingleGroup IntraSkewBound", Options{SingleGroup: true, IntraSkewBound: -1}, false},
		{"+Inf group offset", Options{GroupOffsets: []float64{0, inf, 5}}, false},
		{"NaN group offset", Options{GroupOffsets: []float64{0, 1, nan}}, false},
		{"finite bound", Options{IntraSkewBound: 10}, true},
	} {
		for _, e := range entries {
			err := e.run(tc.opt)
			if tc.ok && err != nil {
				t.Errorf("%s: %s rejected it: %v", tc.name, e.name, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("%s: %s accepted it", tc.name, e.name)
			}
		}
	}
}

// TestRegistrySnapshotRejectsNonFinite: a snapshot holding a non-finite
// offset (one that crossed the wire, say) is refused before any build can
// route against it.
func TestRegistrySnapshotRejectsNonFinite(t *testing.T) {
	in := bench.Intermingled(bench.Small(30, 2), 3, 2)
	reg, err := NewRegistry(in, Options{GroupOffsets: []float64{0, 4, -2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistryFromSnapshot(reg.Snapshot()); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := reg.Snapshot()
		s.Off[1] = v
		if _, err := NewRegistryFromSnapshot(s); err == nil {
			t.Errorf("snapshot with offset %v accepted", v)
		}
	}
}

// TestResultMaxGroupSkewMatchesEval pins Result.MaxGroupSkew, read from the
// root's delay set, to eval's independent measurement within 1e-9
// relative: the worst group of r1–r5 intermingled at k = 4 and 10 under the
// paper's 10 ps bound, and the spread over all sinks of a SingleGroup
// (EXT-BST) build of a grouped instance. OverBound must agree with eval.
func TestResultMaxGroupSkewMatchesEval(t *testing.T) {
	check := func(label string, res *Result, want float64) {
		t.Helper()
		if d := math.Abs(res.MaxGroupSkew - want); d > 1e-9*want {
			t.Errorf("%s: MaxGroupSkew %v ps, eval %v ps (|Δ| %.3g)", label, res.MaxGroupSkew, want, d)
		}
		if over := want > res.Options.IntraSkewBound+skewNoisePs; res.OverBound() != over {
			t.Errorf("%s: OverBound %v at %v ps against bound %v ps", label, res.OverBound(), want, res.Options.IntraSkewBound)
		}
	}
	for ci := range bench.Suite() {
		for _, k := range []int{4, 10} {
			in := paperInput(ci, k)
			res, rep := route(t, in, Options{IntraSkewBound: 10})
			check(in.Name, res, rep.MaxGroupSkew)
		}
	}
	in := paperR2K8()
	res, rep := route(t, in, Options{SingleGroup: true, IntraSkewBound: 10})
	check("SingleGroup "+in.Name, res, rep.GlobalSkew)
}
