package order

import (
	"math"
	"math/rand"
	"testing"
)

// runAll drains the queue through NextBatch simulating merges; dist of a
// merged item is the midpoint of its parts (1-D toy metric). Every batch
// must be disjoint (the parallel-execution contract), and a Greedy batch
// must hold exactly one pair. Returns the merge sequence.
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
		if cfg.Strategy == Greedy && len(batch) != 1 {
			t.Fatalf("Greedy batch holds %d pairs, want 1", len(batch))
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

// nextGreedy pops a Greedy queue's next merge, failing if the batch does
// not hold exactly one pair. ok is false once the queue is drained.
func nextGreedy(t *testing.T, q *Queue) (i, j int, ok bool) {
	t.Helper()
	batch := q.NextBatch()
	switch len(batch) {
	case 0:
		return 0, 0, false
	case 1:
		return batch[0].I, batch[0].J, true
	}
	t.Fatalf("Greedy batch holds %d pairs, want 1", len(batch))
	return 0, 0, false
}

func TestGreedyMergesAll(t *testing.T) {
	pos := []float64{0, 10, 11, 50, 52, 100}
	seq := runAll(t, Config{Strategy: Greedy}, pos)
	if len(seq) != len(pos)-1 {
		t.Fatalf("merges = %d, want %d", len(seq), len(pos)-1)
	}
	// First merge must be the globally closest pair (10, 11).
	first := seq[0]
	if !(first == [2]int{1, 2} || first == [2]int{2, 1}) {
		t.Errorf("first merge = %v, want {1,2}", first)
	}
}

func TestMultiMergesAll(t *testing.T) {
	pos := []float64{3, 1, 4, 1.5, 9, 2.6, 5, 3.5, 8, 9.7}
	seq := runAll(t, Config{Strategy: Multi}, pos)
	if len(seq) != len(pos)-1 {
		t.Fatalf("merges = %d, want %d", len(seq), len(pos)-1)
	}
}

func TestEachItemMergedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, st := range []Strategy{Greedy, Multi} {
		pos := make([]float64, 64)
		for i := range pos {
			pos[i] = r.Float64() * 1000
		}
		seq := runAll(t, Config{Strategy: st}, pos)
		used := map[int]bool{}
		for _, p := range seq {
			for _, x := range p {
				if used[x] {
					t.Fatalf("strategy %v: item %d merged twice", st, x)
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
			t.Fatalf("strategy %v: %d unmerged items, want 1", st, unused)
		}
	}
}

func TestTwoItems(t *testing.T) {
	for _, st := range []Strategy{Greedy, Multi} {
		seq := runAll(t, Config{Strategy: st}, []float64{1, 2})
		if len(seq) != 1 {
			t.Fatalf("strategy %v: merges = %d", st, len(seq))
		}
	}
}

func TestSingleItemNoMerge(t *testing.T) {
	q := New(Config{}, 1, func(i, j int) float64 { return 0 })
	if batch := q.NextBatch(); batch != nil {
		t.Error("single item should not merge")
	}
}

func TestCustomKeyChangesOrder(t *testing.T) {
	// Three items where distance favors (0,1) but the key biases toward
	// merging item 2 (simulating a large delay target) first.
	pos := []float64{0, 1, 5, 5.5}
	delay := map[int]float64{0: 0, 1: 0, 2: 100, 3: 100}
	cfg := Config{Strategy: Greedy, Key: func(i, j int, d float64) float64 {
		return d - 0.1*(delay[i]+delay[j])
	}}
	coords := append([]float64(nil), pos...)
	dist := func(i, j int) float64 { return math.Abs(coords[i] - coords[j]) }
	q := New(cfg, len(pos), dist)
	i, j, ok := nextGreedy(t, q)
	if !ok {
		t.Fatal("no merge")
	}
	if !(i == 2 && j == 3 || i == 3 && j == 2) {
		t.Errorf("first merge = (%d,%d), want the delayed pair (2,3)", i, j)
	}
}

func TestGreedyPicksShortestAmongRemaining(t *testing.T) {
	// A line of points; greedy must never merge a pair while a strictly
	// closer live pair exists at that moment.
	r := rand.New(rand.NewSource(5))
	pos := make([]float64, 32)
	for i := range pos {
		pos[i] = r.Float64() * 1e4
	}
	coords := append([]float64(nil), pos...)
	dist := func(i, j int) float64 { return math.Abs(coords[i] - coords[j]) }
	q := New(Config{Strategy: Greedy}, len(pos), dist)
	alive := map[int]bool{}
	for i := range pos {
		alive[i] = true
	}
	for {
		i, j, ok := nextGreedy(t, q)
		if !ok {
			break
		}
		got := dist(i, j)
		// Verify global minimality over the live set (i, j excluded already
		// by NextBatch, so temporarily restore).
		alive[i], alive[j] = true, true
		best := math.Inf(1)
		for a := range alive {
			for b := range alive {
				if a < b && alive[a] && alive[b] {
					if d := dist(a, b); d < best {
						best = d
					}
				}
			}
		}
		if got > best+1e-9 {
			t.Fatalf("merged pair at distance %v while pair at %v existed", got, best)
		}
		delete(alive, i)
		delete(alive, j)
		coords = append(coords, (coords[i]+coords[j])/2)
		id := len(coords) - 1
		q.Merged(id)
		alive[id] = true
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
