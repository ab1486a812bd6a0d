package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/order"
)

// hashDelays folds the bit patterns of every per-sink delay into one FNV-64a
// digest, in sink-ID order: any single-ULP drift in any sink's delay changes
// the digest.
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

// paperInput is circuit r<ci+1> of the thesis's suite intermingled in k
// groups: a Table II input, routed at the paper's 10 ps bound by the
// goldens and differentials that pin the bounded-skew split search.
func paperInput(ci, k int) *ctree.Instance {
	return bench.Intermingled(bench.Generate(bench.Suite()[ci]), k, 1024)
}

// paperR2K8 is r2 intermingled in 8 groups, the paper input most goldens
// and differentials route.
func paperR2K8() *ctree.Instance { return paperInput(1, 8) }

// TestFlatDelayMatchesMapBaseline pins the flat sorted-slice delay
// representation bitwise to the behavior of the map-based implementation it
// replaced: the wirelength bits and the per-sink delay digest below were
// recorded from the last map-based build (commit 45acbe1) on these exact
// instances, across all three batching strategies, ZST and grouped AST-DME,
// at 1 and 4 merge workers. The flat build must reproduce every one of them
// exactly — the representation change is not allowed to move a single bit
// of any routed tree. Those grouped rows route at B = 0; the paper rows
// route Table II's r2 at k = 8 under the paper's 10 ps bound, with the
// offset leash at W = 0 and W = 20 (recorded at commit e7baf6a, identical
// under the scan and grid pairers), so the deferred-split search that only
// a positive bound exercises is pinned too. The rows recorded at commit
// e959cfc extend that pin: r1, r3, r4 and r5 at B = 10 (instance names
// r<circuit>k<groups>), and r2 k = 8 with the leash off (W < 0) and with
// one explicit pair constraint, the two constraint paths no other golden
// reaches.
func TestFlatDelayMatchesMapBaseline(t *testing.T) {
	insts := map[string]*ctree.Instance{
		"zst":     bench.Small(600, 21),
		"grouped": bench.Intermingled(bench.Small(400, 33), 4, 99),
		"paper":   paperR2K8(),
		"r1k4":    paperInput(0, 4),
		"r3k6":    paperInput(2, 6),
		"r4k10":   paperInput(3, 10),
		"r5k10":   paperInput(4, 10),
	}
	pair := []PairConstraint{{I: 2, J: 5, MinPs: 5, MaxPs: 12}}
	golden := []struct {
		inst      string
		strategy  order.Strategy
		workers   int
		interW    float64 // InterSkewBound of the B = 10 rows
		pair      bool    // the B = 10 row also enforces the pair constraint above
		wireBits  uint64
		delayHash uint64
	}{
		{"zst", order.Multi, 1, 0, false, 0x414296d0dd5b8f80, 0xdec0bd6930b8fb07},
		{"zst", order.Multi, 4, 0, false, 0x414296d0dd5b8f80, 0xdec0bd6930b8fb07},
		{"zst", order.Greedy, 1, 0, false, 0x41430837095ad6e4, 0x6b80f108b7b8c1b6},
		{"zst", order.Greedy, 4, 0, false, 0x41430837095ad6e4, 0x6b80f108b7b8c1b6},
		{"zst", order.GreedyBatch, 1, 0, false, 0x4149688d40a36590, 0x9cd6f2d8aec76065},
		{"zst", order.GreedyBatch, 4, 0, false, 0x4149688d40a36590, 0x9cd6f2d8aec76065},
		{"grouped", order.Multi, 1, 0, false, 0x4139ccbe875e55da, 0xe7123630ad067931},
		{"grouped", order.Multi, 4, 0, false, 0x4139ccbe875e55da, 0xe7123630ad067931},
		{"grouped", order.Greedy, 1, 0, false, 0x413ce17e677c3108, 0x79c49fbb85a3a9ef},
		{"grouped", order.Greedy, 4, 0, false, 0x413ce17e677c3108, 0x79c49fbb85a3a9ef},
		{"grouped", order.GreedyBatch, 1, 0, false, 0x414170495504222e, 0x6a7f78a009858da5},
		{"grouped", order.GreedyBatch, 4, 0, false, 0x414170495504222e, 0x6a7f78a009858da5},
		{"paper", order.Multi, 1, 0, false, 0x4140a4dd4f3fe730, 0xbb4632c47cefd467},
		{"paper", order.Multi, 4, 0, false, 0x4140a4dd4f3fe730, 0xbb4632c47cefd467},
		{"paper", order.Multi, 1, 20, false, 0x41405e8f7148a6df, 0xb1d8e931afebee0e},
		{"paper", order.Multi, 4, 20, false, 0x41405e8f7148a6df, 0xb1d8e931afebee0e},
		{"r1k4", order.Multi, 1, 0, false, 0x41306ef3396fcc6e, 0xbf7c04df0d3767c0},
		{"r3k6", order.Multi, 4, 0, false, 0x41459ac6d407a9e5, 0xdbda592323677176},
		{"r4k10", order.Multi, 1, 0, false, 0x4154aba562de1ae7, 0x48e780b140cf08cd},
		{"r5k10", order.Multi, 4, 0, false, 0x415e306baea812c8, 0x55b6430de79ffc86},
		{"paper", order.Multi, 4, -1, false, 0x41408df3985ca7a2, 0x805e685de166f7a2},
		{"paper", order.Multi, 4, 0, true, 0x4141075af3e04b2f, 0x2d430db6ac7c97df},
	}
	for _, tc := range golden {
		label := fmt.Sprintf("%s/strategy=%v/workers=%d/W=%v/pair=%v", tc.inst, tc.strategy, tc.workers, tc.interW, tc.pair)
		in := insts[tc.inst]
		var res *Result
		var err error
		switch tc.inst {
		case "zst":
			res, err = ZST(in, Options{MergeWorkers: tc.workers, Order: order.Config{Strategy: tc.strategy}})
		case "grouped":
			res, err = Build(in, Options{IntraSkewBound: 0, MergeWorkers: tc.workers, Order: order.Config{Strategy: tc.strategy}})
		default:
			opt := Options{IntraSkewBound: 10, InterSkewBound: tc.interW, MergeWorkers: tc.workers,
				Order: order.Config{Strategy: tc.strategy}}
			if tc.pair {
				opt.PairConstraints = pair
			}
			res, err = Build(in, opt)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if bits := math.Float64bits(res.Wirelength); bits != tc.wireBits {
			t.Errorf("%s: wirelength bits 0x%016x (%v), want 0x%016x (%v)",
				label, bits, res.Wirelength, tc.wireBits, math.Float64frombits(tc.wireBits))
		}
		rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
		if h := hashDelays(rep.SinkDelay); h != tc.delayHash {
			t.Errorf("%s: per-sink delay digest 0x%016x, want 0x%016x", label, h, tc.delayHash)
		}
	}
}
