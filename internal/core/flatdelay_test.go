package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
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

// paperClustered is circuit r<ci+1> in k rectangle-clustered groups: a
// Table I input.
func paperClustered(ci, k int) *ctree.Instance {
	return bench.Clustered(bench.Generate(bench.Suite()[ci]), k)
}

// TestFlatDelayMatchesMapBaseline pins the flat sorted-slice delay
// representation bitwise to the behavior of the map-based implementation it
// replaced: the wirelength bits and the per-sink delay digest below were
// recorded from the last map-based build (commit 45acbe1) on these exact
// instances, ZST and grouped AST-DME, at 1 and 4 merge workers (the workers
// column sets GOMAXPROCS, the merge wave's worker count). The flat build
// must reproduce every one of them exactly — the representation change is
// not allowed to move a single bit of any routed tree. Those grouped rows
// route at B = 0; the paper rows route Table II's r2 at k = 8 under the
// paper's 10 ps bound (recorded at commit e7baf6a, identical under the scan
// and grid pairers), so the deferred-split search that only a positive
// bound exercises is pinned too. The rows recorded at commit e959cfc extend
// that pin: r1, r3, r4 and r5 at B = 10 (instance names
// r<circuit>k<groups>). The Table I rows (r1–r5 at k = 4 and 10,
// clustered, B = 10; names ending in c), recorded at commit 277ff92, pin
// the split search on groupings where whole clusters meet late, which no
// intermingled row does.
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
	for ci := 0; ci < 5; ci++ {
		for _, k := range []int{4, 10} {
			insts[fmt.Sprintf("r%dk%dc", ci+1, k)] = paperClustered(ci, k)
		}
	}
	golden := []struct {
		inst      string
		workers   int // GOMAXPROCS
		wireBits  uint64
		delayHash uint64
	}{
		{"zst", 1, 0x414296d0dd5b8f80, 0xdec0bd6930b8fb07},
		{"zst", 4, 0x414296d0dd5b8f80, 0xdec0bd6930b8fb07},
		{"grouped", 1, 0x4139ccbe875e55da, 0xe7123630ad067931},
		{"grouped", 4, 0x4139ccbe875e55da, 0xe7123630ad067931},
		{"paper", 1, 0x4140a4dd4f3fe730, 0xbb4632c47cefd467},
		{"paper", 4, 0x4140a4dd4f3fe730, 0xbb4632c47cefd467},
		{"r1k4", 1, 0x41306ef3396fcc6e, 0xbf7c04df0d3767c0},
		{"r3k6", 4, 0x41459ac6d407a9e5, 0xdbda592323677176},
		{"r4k10", 1, 0x4154aba562de1ae7, 0x48e780b140cf08cd},
		{"r5k10", 4, 0x415e306baea812c8, 0x55b6430de79ffc86},
		{"r1k4c", 1, 0x412feb644a131f69, 0x80884049a16f3978},
		{"r1k10c", 4, 0x41303f1a6e43fea1, 0x4c540e70350ce7e8},
		{"r2k4c", 4, 0x41407b1c6a097ae8, 0x7440f68aa7dc021c},
		{"r2k10c", 1, 0x41406c2e9e5616fa, 0xa6e5094a99ce4787},
		{"r3k4c", 1, 0x414497234681bdfb, 0x127822699a37d93d},
		{"r3k10c", 4, 0x4144c04fa6dc183c, 0xd48993b15a0362a9},
		{"r4k4c", 4, 0x415481c0e4d9c928, 0x83e4bd087804eca6},
		{"r4k10c", 1, 0x415475bcca816c90, 0x779f8428edf5ef6e},
		{"r5k4c", 1, 0x415e19294d55d764, 0xa03cd2853177522b},
		{"r5k10c", 4, 0x415e26958f1160ab, 0x082e352c43552bda},
	}
	for _, tc := range golden {
		label := fmt.Sprintf("%s/workers=%d", tc.inst, tc.workers)
		in := insts[tc.inst]
		opt := Options{IntraSkewBound: 10}
		switch tc.inst {
		case "zst":
			opt = Options{SingleGroup: true}
		case "grouped":
			opt = Options{IntraSkewBound: 0}
		}
		res := buildAt(t, tc.workers, in, opt)
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
