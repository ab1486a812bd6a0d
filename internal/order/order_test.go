package order

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pairLess is the (Key, I, J) strict total order in which a round ranks its
// candidates: the oracle rankPairs must reproduce.
func pairLess(a, b Pair) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// runAll drains the queue through NextBatch simulating merges; dist of a
// merged item is the midpoint of its parts (1-D toy metric). Every batch
// must be disjoint (the parallel-execution contract). Returns the merge
// sequence.
func runAll(t *testing.T, cfg Config, pos []float64) [][2]int {
	t.Helper()
	coords := append([]float64(nil), pos...)
	dist := func(i, j int) float64 { return math.Abs(coords[i] - coords[j]) }
	q := New(cfg, len(pos), dist)
	var seq [][2]int
	for {
		batch := q.NextBatch()
		if len(batch) == 0 {
			break
		}
		seen := map[int]bool{}
		for _, p := range batch {
			if p.I == p.J {
				t.Fatal("self merge")
			}
			if seen[p.I] || seen[p.J] {
				t.Fatalf("batch reuses an item: %v", batch)
			}
			seen[p.I], seen[p.J] = true, true
		}
		for _, p := range batch {
			seq = append(seq, [2]int{p.I, p.J})
			coords = append(coords, (coords[p.I]+coords[p.J])/2)
			q.Merged(len(coords) - 1)
		}
	}
	return seq
}

func TestMultiMergesAll(t *testing.T) {
	pos := []float64{3, 1, 4, 1.5, 9, 2.6, 5, 3.5, 8, 9.7}
	seq := runAll(t, Config{}, pos)
	if len(seq) != len(pos)-1 {
		t.Fatalf("merges = %d, want %d", len(seq), len(pos)-1)
	}
}

func TestEachItemMergedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pos := make([]float64, 64)
	for i := range pos {
		pos[i] = r.Float64() * 1000
	}
	seq := runAll(t, Config{}, pos)
	used := map[int]bool{}
	for _, p := range seq {
		for _, x := range p {
			if used[x] {
				t.Fatalf("item %d merged twice", x)
			}
			used[x] = true
		}
	}
	// All original items participate; exactly one final item never merges.
	total := 2*len(pos) - 1
	unused := 0
	for i := 0; i < total; i++ {
		if !used[i] {
			unused++
		}
	}
	if unused != 1 {
		t.Fatalf("%d unmerged items, want 1", unused)
	}
}

func TestTwoItems(t *testing.T) {
	if seq := runAll(t, Config{}, []float64{1, 2}); len(seq) != 1 {
		t.Fatalf("merges = %d", len(seq))
	}
}

func TestSingleItemNoMerge(t *testing.T) {
	q := New(Config{}, 1, func(i, j int) float64 { return 0 })
	if batch := q.NextBatch(); batch != nil {
		t.Error("single item should not merge")
	}
}

func TestCustomKeyChangesOrder(t *testing.T) {
	// Distance favors (0,1), which the first round ranks first under the
	// plain key, but the key biases toward merging the pair with large
	// delay targets (2,3) first: both 0 and 1 then prefer 2, and the round
	// merges the delayed pair alone.
	pos := []float64{0, 1, 5, 7}
	delay := map[int]float64{0: 0, 1: 0, 2: 100, 3: 100}
	dist := func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }
	for _, tc := range []struct {
		key  func(i, j int, d float64) float64
		want [][2]int
	}{
		{nil, [][2]int{{0, 1}, {2, 3}}},
		{func(i, j int, d float64) float64 { return d - 0.1*(delay[i]+delay[j]) }, [][2]int{{2, 3}}},
	} {
		var got [][2]int
		for _, p := range New(Config{Key: tc.key}, len(pos), dist).NextBatch() {
			got = append(got, [2]int{min(p.I, p.J), max(p.I, p.J)})
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("custom key %v: first round %v, want %v", tc.key != nil, got, tc.want)
		}
	}
}

// TestParallelChunksPanicPropagates pins the goroutine-panic funnel: a panic
// on any worker's block must surface as a *WorkerPanic re-raised on the
// calling goroutine (where a phase-boundary recover can contain it), never die
// on the spawned goroutine and kill the process — and the other workers must
// have run every remaining block before it is re-raised.
func TestParallelChunksPanicPropagates(t *testing.T) {
	const n = 1024
	var ran [n]bool
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		ParallelChunksN(n, 4, 1, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ran[i] = true
			}
			if lo == 0 {
				panic("chunk zero exploded")
			}
		})
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *WorkerPanic", recovered, recovered)
	}
	if wp.Value != "chunk zero exploded" {
		t.Errorf("WorkerPanic.Value = %v", wp.Value)
	}
	if len(wp.Stack) == 0 {
		t.Error("WorkerPanic carries no worker stack")
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("chunk containing %d never finished before the re-raise", i)
		}
	}

	// The inline path (workers ≤ 1) keeps the raw panic: it is already on the
	// calling goroutine, so wrapping it would only bury the original value.
	var inline any
	func() {
		defer func() { inline = recover() }()
		ParallelChunksN(8, 1, 1, func(int, int, int) { panic("inline") })
	}()
	if inline != "inline" {
		t.Errorf("inline path panic = %v, want the raw value", inline)
	}
}

// TestRankPairsMatchesPairLess: rankPairs ranks a round's candidates (one
// pair per item, ascending in I) exactly as a comparison sort under
// pairLess does, over keys drawn to tie often, to differ only in low bits,
// to span signs and magnitudes, and to include −0 beside +0 (which
// pairLess sees as equal) and infinities.
func TestRankPairsMatchesPairLess(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pool := []float64{0, math.Copysign(0, -1), 1, 1.5, 2, math.Inf(1), math.Inf(-1), -1, -2.5,
		math.SmallestNonzeroFloat64, 1e300, math.Nextafter(1, 2), math.Nextafter(1, 0)}
	var scratch []ranked
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(300)
		cand := make([]Pair, 0, n)
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				continue // an item without a partner leaves a gap in I
			}
			var k float64
			switch trial % 4 {
			case 0:
				k = pool[r.Intn(len(pool))]
			case 1:
				k = float64(r.Intn(8)) // small integers: ties and agreeing bytes
			case 2:
				k = math.Float64frombits(0x40f0_0000_0000_0000 | uint64(r.Intn(1<<12))) // low bits only
			default:
				k = (r.Float64() - 0.25) * math.Pow(10, float64(r.Intn(20)-10))
			}
			cand = append(cand, Pair{Key: k, I: i, J: r.Intn(n + 1)})
		}
		want := slices.Clone(cand)
		slices.SortFunc(want, func(a, b Pair) int {
			switch {
			case pairLess(a, b):
				return -1
			case pairLess(b, a):
				return 1
			}
			return 0
		})
		got := rankPairs(cand, &scratch)
		if len(got) != len(want) {
			t.Fatalf("trial %d: ranked %d of %d candidates", trial, len(got), len(want))
		}
		for k, rk := range got {
			if p := cand[rk.at]; p != want[k] {
				t.Fatalf("trial %d: rank %d is %+v, want %+v", trial, k, p, want[k])
			}
		}
	}
}
