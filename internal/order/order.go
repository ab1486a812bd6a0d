// Package order implements the bottom-up merging order for DME-family clock
// routers: the minimum merging-cost scheme of greedy-DME (Edahiro 1993),
// with the first of the two enhancements named in the thesis (Ch. V.F),
// simultaneous multiple mergings per round: each round computes the
// nearest-neighbor pairing of all live items and merges the shortest
// disjoint set of those pairs before re-pairing, which cuts the number of
// nearest-neighbor recomputations and hence runtime. The second, a
// delay-target priority that merges subtrees with large delays first, is
// not implemented: subtracting delays from the merge cost broke the
// intra-group skew bound by hundreds of nanoseconds on r5, and a key below
// the pair distance defeats the grid pairer's pruning.
//
// The queue works on abstract item indices: the router supplies a distance
// function (typically geom.DistRR over node regions) and, after each merge,
// registers the replacement item.
//
// # Pairers
//
// All nearest-partner queries go through the pluggable Pairer interface:
// the per-item partners of every round (NearestAll) and the
// anti-starvation rule's partner by raw distance (NearestFree). The
// built-in implementation (Config.Pairer == nil) is the all-pairs scan:
// exact for any key function and O(n) per query, which makes every round
// O(n²) — the oracle that caps practical instances at a few thousand
// sinks. Sub-quadratic engines (see internal/spatial for the
// uniform-grid pairer after Edahiro's bucket decomposition) plug in through
// Config.Pairer and must reproduce the oracle's results exactly on tie-free
// inputs; differential tests in internal/spatial enforce this.
//
// Batch pairing (NearestAll) may spread its queries over goroutines
// (ParallelChunks). All results are written by position and ties break
// toward the smallest item index, so merge sequences are reproducible
// across GOMAXPROCS settings.
//
// # Batched consumption
//
// NextBatch is the only way to consume a Queue. It exposes each round's
// disjoint merge set at once, which lets the router execute the merge bodies
// concurrently (the pairs of one batch never share a subtree) and commit
// results in batch order.
//
// # Ranking a round
//
// A round ranks its candidates, each live item's best pair, in (Key, I, J)
// order, the index tie-breaks keeping the selection deterministic under
// exact key ties, and sweeps them into the batch. The candidates come one
// per item, ascending in I, so a stable sort by key alone gives that
// order: an LSD radix sort over the keys' bits, a byte per pass, with −0
// read as +0 and the bytes on which every key agrees skipped (rankPairs).
// It makes the permutation a comparison sort by (Key, I, J) would, in a
// few linear passes. Keys must not be NaN, which no comparison ranks.
package order

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Pair is a candidate merge: item I paired with its best partner J at
// priority Key. J is -1 when no partner exists.
type Pair struct {
	Key  float64
	I, J int
}

// Pairer is the nearest-partner engine behind a Queue. Contract:
//
//   - Insert and Delete maintain the live set; item ids are never reused and
//     only grow. Every method is called from a single goroutine, so an
//     engine may defer its upkeep from the mutations to the queries (the
//     grid pairer of internal/spatial does).
//   - NearestAll returns, at each position t, the live partner j ≠ ids[t]
//     minimizing the pair key, with J = -1 when no partner exists. Exact
//     key ties break toward the smallest j, so results are deterministic.
//     It may shard the queries across goroutines. The returned slice may
//     alias an internal buffer: it is valid only until the next NearestAll
//     call.
//   - NearestFree returns the live partner j ≠ id not marked in used that
//     minimizes the raw pair distance — not the key — with Key set to that
//     distance. Exact ties break toward the smallest j; ok is false when no
//     such partner exists. used is indexed by item id and covers every live
//     id. It serves the anti-starvation rule once per starved item, and
//     must not allocate.
//   - Scans reports the cumulative number of candidate evaluations (keys,
//     and NearestFree's distances) — the pairing-work metric the router
//     reports as Stats.PairScans.
type Pairer interface {
	Insert(id int)
	Delete(id int)
	NearestAll(ids []int) []Pair
	NearestFree(id int, used []bool) (Pair, bool)
	Scans() int64
}

// Config parameterizes a Queue.
type Config struct {
	// Key optionally overrides the pair priority. It receives the two item
	// indices and their distance and returns the priority (lower merges
	// first). Nil means priority = distance. The router supplies its
	// snaking-aware merge cost: the distance plus the wire a delay
	// imbalance would snake. Batch pairing evaluates Key from concurrent
	// goroutines, so it must be safe for concurrent calls (pure functions
	// are; closures that memoize or otherwise mutate shared state are not).
	Key func(i, j int, dist float64) float64
	// Pairer overrides the nearest-partner engine. Nil selects the built-in
	// all-pairs scan (the exact O(n²)-per-round oracle). Sub-quadratic
	// engines must satisfy the Pairer contract; note that grid pairers prune
	// on geometric lower bounds and therefore require Key ≥ distance for
	// every pair (see internal/spatial).
	Pairer Pairer
}

// Queue produces the sequence of merges. Item indices 0..n-1 are the initial
// items; Merged registers replacement items with increasing indices.
type Queue struct {
	cfg    Config
	pairer Pairer
	alive  []bool
	live   int

	batch []Pair // what NextBatch returns
	age   []int  // rounds an item has survived unmerged (anti-starvation)

	// Reused per-round scratch (buildBatch).
	ids  []int
	used []bool
	rank []ranked

	// batchTime accumulates wall time spent inside NextBatch — the pairing
	// and batch-selection cost of the run, separable from the merge bodies.
	// Measured unconditionally (two clock reads per round, no allocations)
	// and read back through BatchTime by traced callers.
	batchTime time.Duration
}

// starveRounds is the number of rounds an item may go unmerged before
// it is force-paired regardless of cost. Without this, items whose pairings
// all look expensive (e.g. delay-imbalanced leftovers) lose their preferred
// partners every round and end up absorbing the mismatch at the tree root,
// where it is most expensive.
const starveRounds = 3

// New builds a queue over n initial items with the given distance function.
func New(cfg Config, n int, dist func(i, j int) float64) *Queue {
	q := &Queue{cfg: cfg, alive: make([]bool, 0, 2*n), live: n}
	q.pairer = cfg.Pairer
	if q.pairer == nil {
		q.pairer = &scanPairer{dist: dist, key: q.key}
	}
	for i := 0; i < n; i++ {
		q.alive = append(q.alive, true)
		q.age = append(q.age, 0)
		q.pairer.Insert(i)
	}
	return q
}

// key returns the pair priority.
func (q *Queue) key(i, j int, d float64) float64 {
	if q.cfg.Key != nil {
		return q.cfg.Key(i, j, d)
	}
	return d
}

// NextBatch returns the next round's batch of disjoint merges, retiring all
// its items, or nil when fewer than two items remain. The pairs of one
// batch never share an item, so the caller may execute the
// merge bodies concurrently; results must be registered with Merged in batch
// order before the next call. The returned slice is valid until the next
// NextBatch call.
func (q *Queue) NextBatch() []Pair {
	start := obs.Now()
	out := q.nextBatch()
	q.batchTime += obs.Since(start)
	return out
}

// BatchTime reports the accumulated wall time of all NextBatch calls: the
// run's pairing and selection cost.
func (q *Queue) BatchTime() time.Duration { return q.batchTime }

func (q *Queue) nextBatch() []Pair {
	if q.live < 2 {
		return nil
	}
	q.buildBatch()
	if len(q.batch) == 0 {
		return nil
	}
	for _, p := range q.batch {
		q.retire(p.I, p.J)
	}
	return q.batch
}

// retire marks both items of a chosen pair dead, here and in the pairer.
func (q *Queue) retire(i, j int) {
	q.alive[i], q.alive[j] = false, false
	q.pairer.Delete(i)
	q.pairer.Delete(j)
	q.live -= 2
}

// buildBatch computes the nearest-neighbor pairing of all live items and
// keeps every pair whose items are both still free, in (key, index) order.
// Edahiro caps a round at a fraction f of the live items; at f = 0.5, the
// value this package always used, the cap cannot bind, since disjoint pairs
// never number more than live/2. The pairing itself runs through the
// pairer's batch query (parallelizable); the disjoint selection is a
// deterministic sequential sweep.
func (q *Queue) buildBatch() {
	q.batch = q.batch[:0]
	ids := q.ids[:0]
	for i, a := range q.alive {
		if a {
			ids = append(ids, i)
		}
	}
	q.ids = ids
	if len(ids) < 2 {
		return
	}
	all := q.pairer.NearestAll(ids)
	cand := all[:0]
	for _, p := range all {
		if p.J >= 0 {
			cand = append(cand, p)
		}
	}
	// The candidates hold one pair per item, ascending in I, so a stable
	// sort by key alone ranks them in (Key, I, J) order (see rankPairs).
	ranks := rankPairs(cand, &q.rank)
	for len(q.used) < len(q.alive) {
		q.used = append(q.used, false)
	}
	used := q.used
	for _, i := range ids {
		used[i] = false
	}
	// Anti-starvation first: force-pair long-waiting items before the normal
	// selection can claim their partners. Running this after the selection
	// (the original order) leaves a starved item stranded whenever the
	// round's disjoint pairing covers every other item, which on odd-sized
	// rounds is exactly the starved item's fate. The partner is chosen by
	// raw distance, not key: the key penalty is what starved the item in the
	// first place, and the rule merges it "regardless of cost". The pairer
	// answers the query (NearestFree), so a grid pairer's ring search keeps
	// it from scanning every live item.
	for _, i := range ids {
		if used[i] || q.age[i] < starveRounds {
			continue
		}
		if p, ok := q.pairer.NearestFree(i, used); ok {
			used[i], used[p.J] = true, true
			q.batch = append(q.batch, p)
		}
	}
	for _, r := range ranks {
		p := cand[r.at]
		if used[p.I] || used[p.J] {
			continue
		}
		used[p.I], used[p.J] = true, true
		q.batch = append(q.batch, p)
	}
	// Items left unmatched this round age by one.
	for _, i := range ids {
		if !used[i] {
			q.age[i]++
		}
	}
}

// ranked is one candidate in rankPairs' sort: its key's radix bits and its
// position among the candidates.
type ranked struct {
	bits uint64
	at   int32
}

// rankPairs returns the positions of cand in ascending (Key, I, J) order, in
// storage carved from *scratch, which it grows as needed. cand must hold at
// most one pair per item, in ascending I, and no NaN key; then a stable
// sort by key alone is the (Key, I, J) order, and rankPairs makes one: an
// LSD radix sort, a byte per pass, over keyBits. A pass over a byte on
// which every key agrees would move nothing, so it is skipped.
func rankPairs(cand []Pair, scratch *[]ranked) []ranked {
	n := len(cand)
	*scratch = slices.Grow((*scratch)[:0], 2*n)
	a, b := (*scratch)[:n], (*scratch)[n:2*n]
	var counts [8][256]int32
	agree, seen := ^uint64(0), uint64(0)
	for i, p := range cand {
		k := keyBits(p.Key)
		a[i] = ranked{bits: k, at: int32(i)}
		agree &= k
		seen |= k
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		shift := 8 * d
		if byte((agree^seen)>>shift) == 0 {
			continue
		}
		// Exclusive prefix sums: where each byte value's run starts.
		c := &counts[d]
		var sum int32
		for v, cnt := range c {
			c[v], sum = sum, sum+cnt
		}
		for _, r := range a {
			v := byte(r.bits >> shift)
			b[c[v]] = r
			c[v]++
		}
		a, b = b, a
	}
	return a
}

// keyBits maps a pair key to a uint64 whose unsigned order is the key's
// numeric order: −0 as +0 (the pair order sees them equal), a non-negative key
// with its sign bit set, a negative one with every bit flipped.
func keyBits(k float64) uint64 {
	b := math.Float64bits(k)
	if k == 0 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Merged registers the item that replaced the most recent merge(s). Items
// must be registered with strictly increasing indices equal to len(alive).
func (q *Queue) Merged(newID int) {
	if newID != len(q.alive) {
		panic("order: Merged called with non-sequential id")
	}
	q.alive = append(q.alive, true)
	q.age = append(q.age, 0)
	q.live++
	q.pairer.Insert(newID)
}

// Scans reports the cumulative number of candidate evaluations performed by
// the pairer — the pairing-work metric the router reports as
// Stats.PairScans.
func (q *Queue) Scans() int64 { return q.pairer.Scans() }

// scanPairer is the built-in oracle engine: a linear scan over all live
// items per query. Exact for any key function.
type scanPairer struct {
	alive []bool
	dist  func(i, j int) float64
	key   func(i, j int, d float64) float64
	out   []Pair
	scans atomic.Int64
}

func (p *scanPairer) Insert(id int) {
	for len(p.alive) <= id {
		p.alive = append(p.alive, false)
	}
	p.alive[id] = true
}

func (p *scanPairer) Delete(id int) {
	if id >= 0 && id < len(p.alive) {
		p.alive[id] = false
	}
}

// nearest returns item i's best live partner by key, smallest index on
// ties (J = -1 when none exists), and the number of candidates it scanned.
func (p *scanPairer) nearest(i int) (pr Pair, n int64) {
	best, bestKey := -1, math.Inf(1)
	for j := range p.alive {
		if j == i || !p.alive[j] {
			continue
		}
		n++
		k := p.key(i, j, p.dist(i, j))
		if k < bestKey || (k == bestKey && j < best) {
			best, bestKey = j, k
		}
	}
	if best < 0 {
		return Pair{I: i, J: -1}, n
	}
	return Pair{Key: bestKey, I: i, J: best}, n
}

func (p *scanPairer) NearestFree(i int, used []bool) (Pair, bool) {
	best, bestD := -1, math.Inf(1)
	var n int64
	for j := range p.alive {
		if j == i || !p.alive[j] || used[j] {
			continue
		}
		n++
		if d := p.dist(i, j); d < bestD || (d == bestD && j < best) {
			best, bestD = j, d
		}
	}
	p.scans.Add(n)
	if best < 0 {
		return Pair{I: i, J: -1}, false
	}
	return Pair{Key: bestD, I: i, J: best}, true
}

func (p *scanPairer) NearestAll(ids []int) []Pair {
	if cap(p.out) < len(ids) {
		p.out = make([]Pair, len(ids))
	}
	out := p.out[:len(ids)]
	ParallelChunks(len(ids), func(_, lo, hi int) {
		var scans int64
		for t := lo; t < hi; t++ {
			var n int64
			out[t], n = p.nearest(ids[t])
			scans += n
		}
		p.scans.Add(scans)
	})
	return out
}

func (p *scanPairer) Scans() int64 { return p.scans.Load() }

// parallelMin is the batch size below which ParallelChunks runs inline:
// under ~a couple hundred queries the goroutine fan-out costs more than the
// scan itself.
const parallelMin = 192

// blocksPerWorker is about how many blocks ParallelChunksN cuts [0, n) into
// per worker: enough that a worker finishing early takes over blocks a
// slower one would have run, few enough that claims stay rare.
const blocksPerWorker = 8

// ParallelChunks is ParallelChunksN on GOMAXPROCS workers, inline below
// parallelMin items. Shared by the built-in scan pairer and external
// engines (internal/spatial).
func ParallelChunks(n int, f func(w, lo, hi int)) {
	ParallelChunksN(n, runtime.GOMAXPROCS(0), parallelMin, f)
}

// WorkerPanic is a panic captured on a ParallelChunks worker goroutine and
// re-raised on the calling goroutine. A panic left on a spawned goroutine is
// unrecoverable anywhere else and kills the process; funneling it through
// the caller lets a recover at the phase boundary (the dispatch layer's
// panic containment) turn it into an error instead. Value is the original
// panic value, Stack the worker goroutine's stack at capture.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("order: parallel worker panicked: %v\n%s", w.Value, w.Stack)
}

// ParallelChunksN cuts [0, n) into contiguous blocks of one fixed size,
// about blocksPerWorker per worker, and starts min(workers, n) goroutines
// that claim the blocks in turn, calling f(w, lo, hi) for each block
// [lo, hi) that worker w (0 ≤ w < workers) claims. A worker that finishes
// early so takes blocks a slower one would otherwise have queued. Which
// worker runs which block depends on scheduling, so callers write results
// by position and keep per-worker state (scratch, counters) by w; the
// output is then deterministic. n below minInline, or workers ≤ 1, runs
// f(0, 0, n) on the calling goroutine. The router's merge wave calls it on
// GOMAXPROCS workers, and every batch NearestAll through ParallelChunks.
//
// A panicking block does not kill the process: its worker stops, the other
// workers claim every block left, then the first captured panic is
// re-raised on the calling goroutine as a *WorkerPanic (the inline path
// lets the panic propagate directly — it is already on the caller).
func ParallelChunksN(n, workers, minInline int, f func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if n < minInline || workers <= 1 {
		f(0, 0, n)
		return
	}
	if workers > n {
		workers = n
	}
	block := (n + workers*blocksPerWorker - 1) / (workers * blocksPerWorker)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked *WorkerPanic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = &WorkerPanic{Value: r, Stack: debug.Stack()}
					}
					panicMu.Unlock()
				}
			}()
			for {
				lo := int(claimed.Add(int64(block))) - block
				if lo >= n {
					return
				}
				f(w, lo, min(lo+block, n))
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
