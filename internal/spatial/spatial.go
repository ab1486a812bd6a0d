// Package spatial provides a Manhattan-metric spatial index for the merging
// loci of DME-family clock routers, and the sub-quadratic nearest-partner
// engine (GridPairer) that plugs it into the merging queue of package order.
//
// # Geometry
//
// Items are geom.Rect bounding boxes in the 45°-rotated uv-plane, where the
// Manhattan (L1) distance of the physical plane is the L∞ gap between boxes
// (geom.DistRR). Router regions that are octagons (deferred merging regions)
// index by their u/v bounding rectangle: DistRR over the bounds lower-bounds
// the true octagon distance, which keeps grid pruning sound while the
// router's own distance function stays exact.
//
// # Grid
//
// The index is a uniform bucket grid, after Edahiro's bucket decomposition
// for greedy-DME: square cells of edge `cell` over a dense array window,
// each holding the ids of the items whose boxes overlap it. Items whose
// boxes fall outside the window are filed clamped to the window edge, which
// is sound (they are discovered no later than their true distance warrants)
// and self-correcting (enough clamped items trigger a re-windowing rebuild).
// Items spanning more than maxSpanCells cells go to a small overflow list
// that every query scans linearly — oversized regions appear near the top of
// the merge tree, when few items are live, so the list stays short.
//
// # Settling: upkeep at query time
//
// Mutations only record: Insert queues the item, and Delete marks it dead
// (a tombstone) in O(1). The grid is brought up to date when a query needs
// it, on the single goroutine that owns the index, by one of two rules:
//
//   - The batch query (GridPairer.NearestAll, once per Multi round)
//     re-files the whole live set into a fresh grid whose window fits the
//     live bounding box and whose cell DensityCell measures for that round's
//     population. Merge rounds retire most of the live set and replace it
//     with fatter merged regions, so a grid fitted to the previous round, or
//     re-celled midway through the retirement, mis-sizes every bucket.
//   - Single queries (GridPairer.Nearest and NearestFree, and NearestBox,
//     which Greedy, internal/dme and the ECO dirty set query) file the
//     queued items one by one and keep the incremental cadence: a full
//     re-cell once the live count has halved since the last build, a
//     re-window once more than clampSlack live items sit clamped at the
//     window edge, and a sweep of dead bucket entries once they outnumber
//     live ones. Each is amortized against the mutations that tripped it.
//
// Both rules read counters kept by the single owning goroutine, and cell
// size never affects query results, so merge sequences and scan counts are
// exactly reproducible. RebuildStats counts the rebuilds: LiveDrop the
// re-cells of a changed live set (each batch query after mutations, and the
// single-query halving rule), EdgeClamp the re-windows. The first filing of
// an index, which fits its window to the items queued so far, counts as
// neither.
//
// # Ring walk and clip
//
// Every query runs one expanding ring walk (nearest): ring r is the square
// annulus of cells at Chebyshev distance r around the query box's own
// cells. Each ring is clipped to the clip box, the cells that can hold a
// candidate within the best key found so far: the query box inflated on
// every side by that key plus a float-safe margin, re-derived whenever the
// best key improves. The walk stops once the rings it has walked cover the
// clip box. Exactness requires the candidate key to dominate the
// bounding-box distance: true for plain distance (greedy-DME, classic DME)
// and for the router's snaking-aware merge keys, which only add
// non-negative elongation excess to the distance.
//
// The clip is sound in floating point, not only in exact arithmetic. A
// candidate b can win only if its key, and so its computed DistRR from the
// query box q, is at most the best key K, so each computed axis gap is:
// fl(b.ULo − q.UHi) ≤ K, which bounds the exact b.ULo by q.UHi + K(1+2u),
// u = 2⁻⁵³, and likewise for the three other sides. The margin,
// 2⁻⁴⁰·(K + |q.ULo| + |q.UHi| + |q.VLo| + |q.VHi|), outweighs that error
// plus the rounding of the inflation's own additions by more than 2⁸, so
// the computed clip edges lie beyond every exact edge a winning candidate
// can reach. Clip edges map to cells through the very floor(v/cell) that
// files the items, which is monotone, so such a candidate always has a
// filed cell inside the clip. A cell is pruned only when it lies wholly
// beyond an inflated edge: the comparison is strict, so equal-key
// candidates are always visited and the smallest-id tie-break is global,
// matching the all-pairs scan.
//
// # Exact shortcuts
//
// Before it scores a candidate, a query takes DistRR between its query box
// and the candidate's stored box, and skips the key call when that
// distance exceeds the best key so far, or equals it at a larger id
// (outranked). The skipped candidate still counts in Scans. This
// pre-filter needs the key bound to hold in floating point, not only in
// exact arithmetic: key ≥ DistRR of the stored boxes as computed. Every
// caller meets it. The router's key is DistRR of the same rectangles;
// DistOO, which makes the same two gap1 calls and takes a max with two
// more terms; or its merge key, that distance plus a non-negative excess,
// which rounds to no less than the distance. NearestBox, which internal/dme
// and the ECO dirty set query, scores by DistRR of the stored boxes
// themselves. GridPairer.NearestFree, the anti-starvation query, scores by
// the router's exact distance, which meets the same bound.
//
// DensityCell's nearest-neighbor pass sorts its sample by ULo and sweeps
// each sample outward until a u-gap bound passes its best so far
// (sampleSpacings), instead of comparing every pair. Each minimum, and so
// the cell, is bitwise the all-pairs one.
package spatial

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
)

// maxSpanCells caps the number of grid cells one item may occupy before it
// is moved to the linearly-scanned overflow list.
const maxSpanCells = 64

// Upkeep constants. The thresholds are deliberately coarse powers of two:
// every trigger is amortized against the mutations that tripped it.
const (
	// windowPad inflates a rebuilt window by this many cells per side, so
	// regions drifting slightly past the live bounding box stay unclamped.
	windowPad = 2
	// purgeSlack delays the dead-entry sweep until tombstones outnumber
	// live filed entries by this margin (avoids thrashing tiny indices).
	purgeSlack = 64
	// clampSlack is the minimum number of edge-clamped live items before a
	// re-windowing rebuild is considered.
	clampSlack = 32
	// recellMinLive disables re-cell rebuilds for tiny live sets, where any
	// cell size is fine and rebuild bookkeeping would dominate.
	recellMinLive = 32
	// maxCellsPerItem caps the dense window at this many cells per live
	// item; DensityCell's estimate is floored so the array stays O(n).
	maxCellsPerItem = 8
	// clipMargin scales the clip box's float-safe margin (see the package
	// documentation): 2⁻⁴⁰ of the key plus the query box's coordinate
	// magnitudes, some 2¹¹ times the rounding error it must absorb.
	clipMargin = 0x1p-40
)

// RebuildStats counts index rebuilds by trigger. LiveDrop counts re-cells
// of a changed live set: every batch query that follows mutations re-files
// the live set under a DensityCell measured for it, and a single query
// does so once the live count has halved since the last build. EdgeClamp
// counts re-windows, when a single query finds more than clampSlack live
// items filed clamped at the window edge. An index's first filing counts as
// neither.
type RebuildStats struct {
	LiveDrop, EdgeClamp int
}

// Total returns the total rebuild count.
func (r RebuildStats) Total() int { return r.LiveDrop + r.EdgeClamp }

// Add accumulates another index's rebuild counts (aggregation across the
// per-shard indices of a sharded run).
func (r *RebuildStats) Add(o RebuildStats) {
	r.LiveDrop += o.LiveDrop
	r.EdgeClamp += o.EdgeClamp
}

// spanState tracks how an item relates to the bucket array.
type spanState uint8

const (
	spanEmpty  spanState = iota // not live, not filed anywhere
	spanQueued                  // live, waiting in pending to be filed
	spanLive                    // filed and alive
	spanTomb                    // dead, bucket or overflow entries not yet purged
)

// itemSpan records where an item was filed so refiles and rebuilds can
// unfile it. Cell coordinates are window-relative and already clamped.
type itemSpan struct {
	cu0, cu1, cv0, cv1 int32
	overflow           bool
	state              spanState
}

// cellCount returns the number of bucket entries the span occupies.
func (sp itemSpan) cellCount() int {
	if sp.overflow {
		return 0
	}
	return int(sp.cu1-sp.cu0+1) * int(sp.cv1-sp.cv0+1)
}

// cellBox is an inclusive window-relative cell range.
type cellBox struct{ u0, u1, v0, v1 int32 }

// Index is the uniform bucket grid. All of its methods must be called from
// a single goroutine: queries settle the grid first (see the package
// documentation), which mutates it. GridPairer.NearestAll fans its queries
// out across goroutines only after settling, while nothing mutates the
// index.
type Index struct {
	cell float64
	// Window: cells[cu + cv*w] holds the bucket of window-relative cell
	// (cu, cv); (ou, ov) is the absolute cell coordinate of (0, 0).
	ou, ov  int32
	w, h    int32
	cells   [][]int32
	spans   []itemSpan
	boxes   []geom.Rect
	over    []int32 // ids of oversized filed items, tombstoned ones included
	pending []int32 // queued inserts; ids deleted or re-queued since are skipped
	n       int     // live items, queued ones included

	// Upkeep counters (single-writer).
	liveFiled int  // bucket entries of live items
	deadFiled int  // bucket entries of tombstoned items
	clamped   int  // live items filed clamped at the window edge since last build
	peakLive  int  // max live count since last build (re-cell trigger)
	changed   bool // a mutation since the last build (batch re-file trigger)

	rebuilds RebuildStats
	// rebuildTime accumulates wall time spent inside rebuild. Measured
	// unconditionally (two clock reads per rebuild, no allocations) so
	// traced callers can attribute pairing time to index maintenance.
	rebuildTime time.Duration

	// Build scratch, reused by every rebuild: per-cell entry counts, the
	// live ids and boxes, and the flat backing the buckets are carved from.
	countBuf  []int32
	liveIDs   []int32
	liveBoxes []geom.Rect
	flat      []int32

	// entrySlab backs bucket growth: when an append outgrows a bucket's
	// capacity, the doubled backing comes from this chunked slab instead of
	// its own heap allocation. After a bulk build every bucket sits at exact
	// capacity, so without the slab nearly every post-build insert pays a
	// malloc; with it, growth costs only the copy. Abandoned backings (the
	// outgrown originals, and every bucket on rebuild) simply become garbage
	// with their chunk.
	entrySlab []int32

	scans atomic.Int64
}

// New returns an empty index with the given cell edge; a cell ≤ 0 leaves
// the edge to the first filing, which measures it with DensityCell. The
// first query fits the window to the items queued so far; later rebuilds
// re-fit it, and batch queries re-measure the cell.
func New(cell float64) *Index {
	if !(cell > 0) {
		cell = 0
	}
	return &Index{cell: cell}
}

// AutoCell returns a cell edge targeting about one item per cell: the larger
// edge of the boxes' common bounding box divided by √n. Degenerate inputs
// (no extent) yield 1. For clustered placements DensityCell adapts better.
func AutoCell(boxes []geom.Rect) float64 {
	if len(boxes) == 0 {
		return 1
	}
	bb := boundsOf(boxes)
	edge := max(bb.Width(), bb.Height())
	cell := edge / math.Ceil(math.Sqrt(float64(len(boxes))))
	if !(cell > 0) {
		return 1
	}
	return cell
}

// DensityCell estimates a cell edge from the measured point density instead
// of the global extent: it samples up to 256 boxes at a fixed stride,
// computes each sample's nearest-neighbor distance within the sample, takes
// the 25th percentile (biasing toward the dense regions that dominate query
// cost), and rescales by √(sample/n) — nearest-neighbor spacing scales with
// 1/√density, so the thinned sample overestimates it by exactly that
// factor. The estimate is floored so the dense window stays O(n) cells
// (windowFloor), and raised to the samples' median box
// edge so fattened regions keep spanning O(1) cells. On uniform placements
// this lands near AutoCell; on power-law placements it is several times
// finer, which keeps the hot clusters' buckets small.
//
// The nearest-neighbor distances come from sampleSpacings' sort-and-sweep,
// which computes the same values as comparing every pair of samples.
func DensityCell(boxes []geom.Rect) float64 {
	n := len(boxes)
	if n == 0 {
		return 1
	}
	bb := boundsOf(boxes)
	// Sample size: capped at 256, scaled down as 4√n for small populations
	// so the sampling stays a vanishing fraction of the build it serves.
	s := int(4 * math.Sqrt(float64(n)))
	if s > 256 {
		s = 256
	}
	if s < 16 {
		s = 16
	}
	if s > n {
		s = n
	}
	stride := n / s
	sample := make([]sampleBox, s)
	vals := make([]float64, 2*s)
	edges, nn := vals[:s], vals[s:s]
	for a := range sample {
		r := boxes[a*stride]
		sample[a].Rect = r
		edges[a] = max(r.Width(), r.Height())
	}
	nn = sampleSpacings(sample, nn)
	slices.Sort(nn)
	slices.Sort(edges)
	var cell float64
	if len(nn) > 0 {
		// 25th-percentile sample spacing, rescaled to the full population
		// and doubled: about 2-4 items per cell in the dense regions.
		cell = 2 * nn[len(nn)/4] * math.Sqrt(float64(s)/float64(n))
	}
	if floor := windowFloor(bb, n); cell < floor {
		cell = floor
	}
	// Fat regions should span O(1) cells, not maxSpanCells.
	if med := edges[len(edges)/2]; cell < med {
		cell = med
	}
	if !(cell > 0) {
		return AutoCell(boxes)
	}
	return cell
}

// windowFloor is the smallest cell edge that keeps a window over bb at
// O(n) cells: about maxCellsPerItem per item by area, and at most
// maxCellsPerItem·n along the longer axis, where a (nearly) collinear
// population with a tiny spacing and no area would otherwise cut billions
// of cells.
func windowFloor(bb geom.Rect, n int) float64 {
	per := float64(maxCellsPerItem * n)
	return max(math.Sqrt(bb.Width()*bb.Height()/per), max(bb.Width(), bb.Height())/per)
}

// sampleBox is a DensityCell sample box. hiMax is the largest UHi of the
// samples sorted up to and including it.
type sampleBox struct {
	geom.Rect
	hiMax float64
}

// sampleSpacings appends to nn each sample's smallest DistRR to another
// sample, in no particular order, leaving out infinite ones. It reorders
// sample.
//
// The samples are sorted by ULo and each one sweeps right, then left, until
// a gap bound shows no further sample can come closer than its best so far.
// Rightward, the bound is the u-gap to the next sample's ULo; leftward, it
// is the u-gap to the largest UHi of all samples left of the cursor. Both
// gaps are the very subtraction DistRR's gap1 makes, or a rounding-monotone
// lower bound of it, and DistRR is at least its u-gap, so every skipped
// pair's DistRR is at least the best: each minimum is bitwise the all-pairs
// one. That takes non-empty boxes (ULo ≤ UHi), as DistRR itself does; a NaN
// anywhere disables the cut-offs it touches.
func sampleSpacings(sample []sampleBox, nn []float64) []float64 {
	slices.SortFunc(sample, func(a, b sampleBox) int { return cmp.Compare(a.ULo, b.ULo) })
	for k := range sample {
		sample[k].hiMax = sample[k].UHi
		if k > 0 {
			sample[k].hiMax = max(sample[k-1].hiMax, sample[k].UHi)
		}
	}
	for a := range sample {
		r := sample[a].Rect
		best := math.Inf(1)
		for b := a + 1; b < len(sample); b++ {
			if sample[b].ULo-r.UHi >= best {
				break
			}
			if d := geom.DistRR(r, sample[b].Rect); d < best {
				best = d
			}
		}
		for b := a - 1; b >= 0; b-- {
			if r.ULo-sample[b].hiMax >= best {
				break
			}
			if d := geom.DistRR(r, sample[b].Rect); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			nn = append(nn, best)
		}
	}
	return nn
}

func boundsOf(boxes []geom.Rect) geom.Rect {
	bb := boxes[0]
	for _, r := range boxes[1:] {
		bb = geom.Union(bb, r)
	}
	return bb
}

func (x *Index) cellIdx(v float64) int32 {
	return int32(math.Floor(v / x.cell))
}

// windowCell returns the window-relative cell of coordinate v along an axis
// whose window starts at absolute cell o and spans n cells, clamped to
// [0, n−1]. It equals clamp32(cellIdx(v)−o, 0, n−1) wherever cellIdx fits
// an int32, and clamps in floating point so that an inflated clip edge far
// outside the window (or infinite) never overflows the conversion.
func (x *Index) windowCell(v float64, o, n int32) int32 {
	c := math.Floor(v/x.cell) - float64(o)
	switch {
	case c >= float64(n-1):
		return n - 1
	case c > 0:
		return int32(c)
	}
	return 0
}

// setWindow sizes the dense bucket array for absolute cell range
// [u0, u1] × [v0, v1], reusing the previous array when it is large enough.
func (x *Index) setWindow(u0, u1, v0, v1 int32) {
	x.ou, x.ov = u0, v0
	x.w, x.h = u1-u0+1, v1-v0+1
	n := int(x.w) * int(x.h)
	if cap(x.cells) >= n {
		x.cells = x.cells[:n]
		clear(x.cells)
	} else {
		x.cells = make([][]int32, n)
	}
}

// Len returns the number of live items.
func (x *Index) Len() int { return x.n }

// Scans reports the cumulative number of candidate evaluations across all
// queries.
func (x *Index) Scans() int64 { return x.scans.Load() }

// Rebuilds reports how many times the index rebuilt itself, by trigger.
// Rebuilds run when a query settles the index, so mutations alone never
// move the counts.
func (x *Index) Rebuilds() RebuildStats { return x.rebuilds }

// RebuildTime reports the cumulative wall time spent rebuilding the index.
func (x *Index) RebuildTime() time.Duration { return x.rebuildTime }

// clampSpan converts box r to a window-relative, clamped cell span.
// clamped reports whether any side was cut by the window edge.
func (x *Index) clampSpan(r geom.Rect) (sp itemSpan, clamped bool) {
	cu0, cu1 := x.cellIdx(r.ULo)-x.ou, x.cellIdx(r.UHi)-x.ou
	cv0, cv1 := x.cellIdx(r.VLo)-x.ov, x.cellIdx(r.VHi)-x.ov
	if cu0 < 0 || cv0 < 0 || cu1 >= x.w || cv1 >= x.h {
		clamped = true
	}
	sp.cu0 = clamp32(cu0, 0, x.w-1)
	sp.cu1 = clamp32(cu1, sp.cu0, x.w-1)
	sp.cv0 = clamp32(cv0, 0, x.h-1)
	sp.cv1 = clamp32(cv1, sp.cv0, x.h-1)
	return sp, clamped
}

// file writes the span's id into its buckets.
func (x *Index) file(id int32, sp itemSpan) {
	for cv := sp.cv0; cv <= sp.cv1; cv++ {
		row := cv * x.w
		for cu := sp.cu0; cu <= sp.cu1; cu++ {
			x.appendEntry(row+cu, id)
		}
	}
}

// entrySlabMin is the chunk size (entries) of the bucket-growth slab.
const entrySlabMin = 1 << 14

// appendEntry appends id to bucket c, growing an out-of-capacity bucket out
// of the entry slab rather than a per-bucket heap allocation.
func (x *Index) appendEntry(c int32, id int32) {
	b := x.cells[c]
	if len(b) == cap(b) {
		n := 2 * len(b)
		if n < 4 {
			n = 4
		}
		if cap(x.entrySlab)-len(x.entrySlab) < n {
			sz := entrySlabMin
			if n > sz {
				sz = n
			}
			x.entrySlab = make([]int32, 0, sz)
		}
		l := len(x.entrySlab)
		nb := x.entrySlab[l : l+len(b) : l+n]
		x.entrySlab = x.entrySlab[:l+n]
		copy(nb, b)
		b = nb
	}
	x.cells[c] = append(b, id)
}

// unfile removes a filed id's bucket (or overflow) entries eagerly,
// adjusting the filed counters for the span's previous state. Used when a
// filed id, live or tombstoned, is inserted again; bulk removal goes
// through purge and rebuild.
func (x *Index) unfile(id int) {
	sp := x.spans[id]
	if sp.overflow {
		for k, v := range x.over {
			if v == int32(id) {
				last := len(x.over) - 1
				x.over[k] = x.over[last]
				x.over = x.over[:last]
				break
			}
		}
	} else {
		for cv := sp.cv0; cv <= sp.cv1; cv++ {
			row := cv * x.w
			for cu := sp.cu0; cu <= sp.cu1; cu++ {
				bucket := x.cells[row+cu]
				for b, v := range bucket {
					if v == int32(id) {
						last := len(bucket) - 1
						bucket[b] = bucket[last]
						x.cells[row+cu] = bucket[:last]
						break
					}
				}
			}
		}
		if sp.state == spanLive {
			x.liveFiled -= sp.cellCount()
		} else {
			x.deadFiled -= sp.cellCount()
		}
	}
	x.spans[id].state = spanEmpty
}

// Insert queues item id under bounding box r; the next query files it. Ids
// may be sparse and only grow; re-inserting a live id moves it to the new
// box.
func (x *Index) Insert(id int, r geom.Rect) {
	for len(x.spans) <= id {
		x.spans = append(x.spans, itemSpan{})
		x.boxes = append(x.boxes, geom.Rect{})
	}
	x.boxes[id] = r
	x.changed = true
	switch x.spans[id].state {
	case spanQueued:
		return // already queued: filed under the new box
	case spanLive:
		x.unfile(id)
		x.n--
	case spanTomb:
		// Resurrected id: drop the stale tombstoned entries now, or the
		// purge sweep would mistake them for the new live filing.
		x.unfile(id)
	}
	x.spans[id] = itemSpan{state: spanQueued}
	if x.w > 0 {
		// Without a window, the next query files every live item at once
		// and has no use for the queue.
		x.pending = append(x.pending, int32(id))
	}
	x.n++
	if x.n > x.peakLive {
		x.peakLive = x.n
	}
}

// InsertAll queues boxes under ids 0..len(boxes)-1, as Insert does one by
// one. On a fresh index the first query files them all in one counting
// pass, with the window fitted to their bounding box.
func (x *Index) InsertAll(boxes []geom.Rect) {
	x.reserve(len(boxes))
	for i, r := range boxes {
		x.Insert(i, r)
	}
}

// reserve makes room for ids 0..ids-1 without regrowing the per-id tables.
func (x *Index) reserve(ids int) {
	if more := ids - len(x.spans); more > 0 {
		x.spans = slices.Grow(x.spans, more)
		x.boxes = slices.Grow(x.boxes, more)
	}
}

// Delete retires item id. Deleting a dead or unknown id is a no-op. A filed
// item is only tombstoned: its entries are swept lazily (see the package
// documentation), so Delete is O(1) however many cells the item spanned.
func (x *Index) Delete(id int) {
	if id < 0 || id >= len(x.spans) {
		return
	}
	switch x.spans[id].state {
	case spanQueued:
		x.spans[id].state = spanEmpty // its pending entry is skipped
	case spanLive:
		x.spans[id].state = spanTomb
		c := x.spans[id].cellCount()
		x.liveFiled -= c
		x.deadFiled += c
	default:
		return
	}
	x.n--
	x.changed = true
}

// settle brings the grid up to date for a single query under the
// incremental cadence (see the package documentation): the first filing,
// the live-drop re-cell, or the queued items filed one by one followed by
// the edge-clamp re-window or the dead-entry sweep when due.
func (x *Index) settle() {
	switch {
	case x.w == 0:
		if x.n > 0 {
			x.rebuild(false)
		}
	case x.n >= recellMinLive && 2*x.n <= x.peakLive:
		x.rebuilds.LiveDrop++
		x.rebuild(true)
	default:
		for _, id := range x.pending {
			if x.spans[id].state == spanQueued {
				x.fileQueued(id)
			}
		}
		x.pending = x.pending[:0]
		switch {
		case x.clamped > clampSlack && 8*x.clamped > x.n:
			x.rebuilds.EdgeClamp++
			x.rebuild(false)
		case x.deadFiled > x.liveFiled+purgeSlack:
			x.purge()
		default:
			x.dropDeadOverflow()
		}
	}
}

// settleBatch brings the grid up to date for a batch query: when the live
// set changed since the last build, it re-files it into a window fitted to
// its bounding box, under a cell DensityCell measures for it.
func (x *Index) settleBatch() {
	if !x.changed {
		return
	}
	if x.w > 0 {
		x.rebuilds.LiveDrop++ // a first filing is no rebuild
	}
	x.rebuild(true)
}

// liveSpan records id's span in the current window as live, moving the
// item to the overflow list when the span covers more than maxSpanCells
// cells. clamped reports whether the window edge cut the span.
func (x *Index) liveSpan(id int32) (sp itemSpan, clamped bool) {
	sp, clamped = x.clampSpan(x.boxes[id])
	sp.state = spanLive
	if sp.cellCount() > maxSpanCells {
		sp.overflow = true
		x.over = append(x.over, id)
	}
	x.spans[id] = sp
	return sp, clamped
}

// fileQueued files a queued item into the current window, counting an
// edge-clamped filing toward the re-window trigger.
func (x *Index) fileQueued(id int32) {
	if sp, clamped := x.liveSpan(id); !sp.overflow {
		x.file(id, sp)
		x.liveFiled += sp.cellCount()
		if clamped {
			x.clamped++
		}
	}
}

// dropDeadOverflow removes tombstoned items from the overflow list, which
// every query scans.
func (x *Index) dropDeadOverflow() {
	kept := x.over[:0]
	for _, id := range x.over {
		if x.spans[id].state == spanLive {
			kept = append(kept, id)
		} else {
			x.spans[id].state = spanEmpty
		}
	}
	x.over = kept
}

// purge sweeps tombstoned entries out of every bucket and the overflow
// list. Cost is one pass over the filed entries, amortized against the
// deletes that created them.
func (x *Index) purge() {
	for c, bucket := range x.cells {
		kept := bucket[:0]
		for _, id := range bucket {
			if x.spans[id].state == spanLive {
				kept = append(kept, id)
			}
		}
		x.cells[c] = kept
	}
	x.dropDeadOverflow()
	for id := range x.spans {
		if x.spans[id].state == spanTomb {
			x.spans[id].state = spanEmpty
		}
	}
	x.deadFiled = 0
}

// rebuild files every live item, queued ones included, under a fresh
// window fitted to the live bounding box — with a re-measured DensityCell
// edge when recell is set, or when the index has no edge yet — dropping
// all tombstones.
func (x *Index) rebuild(recell bool) {
	start := obs.Now()
	defer func() { x.rebuildTime += obs.Since(start) }()
	ids := x.liveIDs[:0]
	var bb geom.Rect
	for id := range x.spans {
		switch x.spans[id].state {
		case spanLive, spanQueued:
			if len(ids) == 0 {
				bb = x.boxes[id]
			} else {
				bb = geom.Union(bb, x.boxes[id])
			}
			ids = append(ids, int32(id))
		default:
			x.spans[id].state = spanEmpty
		}
	}
	x.liveIDs = ids
	x.pending, x.over = x.pending[:0], x.over[:0]
	x.liveFiled, x.deadFiled, x.clamped = 0, 0, 0
	x.peakLive = x.n
	x.changed = false
	if len(ids) == 0 {
		x.w, x.h, x.cells = 0, 0, x.cells[:0]
		return
	}
	if recell && len(ids) >= recellMinLive || x.cell == 0 {
		boxes := slices.Grow(x.liveBoxes[:0], len(ids))
		for _, id := range ids {
			boxes = append(boxes, x.boxes[id])
		}
		x.liveBoxes = boxes
		x.cell = DensityCell(boxes)
	}
	x.setWindow(x.cellIdx(bb.ULo)-windowPad, x.cellIdx(bb.UHi)+windowPad,
		x.cellIdx(bb.VLo)-windowPad, x.cellIdx(bb.VHi)+windowPad)
	x.bulkFile(ids)
}

// bulkFile files the given items into the (fresh) bucket array with a
// counting pass over one flat backing slice, instead of growing each bucket
// by appends.
func (x *Index) bulkFile(ids []int32) {
	if cap(x.countBuf) < len(x.cells) {
		x.countBuf = make([]int32, len(x.cells))
	}
	counts := x.countBuf[:len(x.cells)]
	clear(counts)
	total := 0
	for _, id := range ids {
		if sp, _ := x.liveSpan(id); !sp.overflow {
			total += sp.cellCount()
			for cv := sp.cv0; cv <= sp.cv1; cv++ {
				row := cv * x.w
				for cu := sp.cu0; cu <= sp.cu1; cu++ {
					counts[row+cu]++
				}
			}
		}
	}
	// Every bucket is re-carved below, so no bucket of the previous build
	// still aliases the reused backing.
	if cap(x.flat) < total {
		x.flat = make([]int32, 0, total)
	}
	flat := x.flat[:0]
	for c, cnt := range counts {
		if cnt > 0 {
			// Length 0, capacity cnt: x.file appends in place.
			x.cells[c] = flat[len(flat) : len(flat) : len(flat)+int(cnt)]
			flat = flat[:len(flat)+int(cnt)]
		}
	}
	for _, id := range ids {
		sp := x.spans[id]
		if !sp.overflow {
			x.file(id, sp)
			x.liveFiled += sp.cellCount()
		}
	}
}

// keyer scores candidate items against a fixed query item. It exists so the
// hot pairing path can run without allocating per-query closures: the
// implementation (typically a pairer) is bound once and reused for every
// query.
type keyer interface {
	// pairKey returns the pair priority of (self, cand). It must be ≥
	// DistRR of the two items' stored boxes as computed in floating point,
	// not only in exact arithmetic: the clip and the box pre-filter both
	// rest on that bound (see the package documentation).
	pairKey(self, cand int) float64
}

// nearest returns the live item minimizing k.pairKey(self, ·), excluding
// self, dead items and, when used is non-nil, every id marked in used, or
// −1 when no candidate exists; exact key ties break toward the smallest id.
// It also returns how many candidates it scanned, for the caller to count.
// The query box is self's own stored box.
//
// The index must be settled, with nothing mutating it during the call; then
// nearest only reads it, so concurrent calls are safe. Items spanning
// several cells may be evaluated more than once (the ring walk does not
// deduplicate), so pairKey must be pure.
func (x *Index) nearest(self int, k keyer, used []bool) (best int, bestKey float64, scans int64) {
	q := x.boxes[self]
	best, bestKey = -1, math.Inf(1)
	for _, id32 := range x.over {
		id := int(id32)
		if id == self || x.spans[id].state != spanLive || used != nil && used[id] {
			continue
		}
		scans++
		if x.outranked(q, id, best, bestKey) {
			continue
		}
		if key := k.pairKey(self, id); key < bestKey || (key == bestKey && id < best) {
			best, bestKey = id, key
		}
	}
	if x.w == 0 {
		return best, bestKey, scans
	}
	sp, _ := x.clampSpan(q)
	qc := cellBox{sp.cu0, sp.cu1, sp.cv0, sp.cv1}
	clip := x.clipBox(q, bestKey)
	for r := int32(0); ; r++ {
		ring := cellBox{qc.u0 - r, qc.u1 + r, qc.v0 - r, qc.v1 + r}
		var strips [4]cellBox
		for _, st := range strips[:ringStrips(&strips, ring, r)] {
			// Loop bounds re-read clip, which shrinks whenever the best
			// key improves.
			for cv := max(st.v0, clip.v0); cv <= min(st.v1, clip.v1); cv++ {
				row := cv * x.w
				for cu := max(st.u0, clip.u0); cu <= min(st.u1, clip.u1); cu++ {
					for _, id32 := range x.cells[row+cu] {
						id := int(id32)
						if id == self || x.spans[id].state != spanLive || used != nil && used[id] {
							continue
						}
						scans++
						if x.outranked(q, id, best, bestKey) {
							continue
						}
						if key := k.pairKey(self, id); key < bestKey || (key == bestKey && id < best) {
							best, bestKey = id, key
							clip = x.clipBox(q, bestKey)
						}
					}
				}
			}
		}
		if ring.u0 <= clip.u0 && ring.u1 >= clip.u1 && ring.v0 <= clip.v0 && ring.v1 >= clip.v1 {
			return best, bestKey, scans
		}
	}
}

// clipBox returns the window cells that can hold a candidate whose key is
// at most key against query box q: q inflated on every side by key plus
// the float-safe margin, mapped to cells like the items' own filing and
// clamped to the window. An infinite key gives the whole window.
func (x *Index) clipBox(q geom.Rect, key float64) cellBox {
	k := key + (key+math.Abs(q.ULo)+math.Abs(q.UHi)+math.Abs(q.VLo)+math.Abs(q.VHi))*clipMargin
	return cellBox{
		x.windowCell(q.ULo-k, x.ou, x.w), x.windowCell(q.UHi+k, x.ou, x.w),
		x.windowCell(q.VLo-k, x.ov, x.h), x.windowCell(q.VHi+k, x.ov, x.h),
	}
}

// outranked is the box pre-filter of the ring walk: it reports that
// candidate id cannot beat the best so far (best, bestKey) because the
// distance between the query box q and its stored box already exceeds
// bestKey, or equals it while id is larger. Every key is ≥ that distance in
// floating point (the keyer contract), so skipping the key call never
// changes a result; it only saves the call. The candidate still counts in
// scans.
func (x *Index) outranked(q geom.Rect, id, best int, bestKey float64) bool {
	d := geom.DistRR(q, x.boxes[id])
	return d > bestKey || (d == bestKey && id > best)
}

// ringStrips writes the cell strips of Chebyshev ring r, whose outer
// square is ring, into strips and returns how many there are: the whole
// square for ring 0, else its bottom and top rows and its left and right
// columns between them. Strips may reach past the window; the walk
// intersects them with the clip box, which lies inside it.
func ringStrips(strips *[4]cellBox, ring cellBox, r int32) int {
	if r == 0 {
		strips[0] = ring
		return 1
	}
	strips[0] = cellBox{ring.u0, ring.u1, ring.v0, ring.v0}
	strips[1] = cellBox{ring.u0, ring.u1, ring.v1, ring.v1}
	strips[2] = cellBox{ring.u0, ring.u0, ring.v0 + 1, ring.v1 - 1}
	strips[3] = cellBox{ring.u1, ring.u1, ring.v0 + 1, ring.v1 - 1}
	return 4
}

// NearestBox returns the live item whose stored box lies nearest self's by
// DistRR, excluding self; exact ties break toward the smallest id, and ok
// is false when no other live item exists. It settles the index under the
// single-query cadence first.
func (x *Index) NearestBox(self int) (best int, dist float64, ok bool) {
	x.settle()
	best, dist, scans := x.nearest(self, boxKeyer{x}, nil)
	x.scans.Add(scans)
	if best < 0 {
		return -1, 0, false
	}
	return best, dist, true
}

// boxKeyer scores a candidate by DistRR of the two stored boxes, which
// meets the keyer bound with equality. It holds one pointer, so passing it
// as a keyer allocates nothing.
type boxKeyer struct{ x *Index }

func (k boxKeyer) pairKey(self, cand int) float64 {
	return geom.DistRR(k.x.boxes[self], k.x.boxes[cand])
}

func clamp32(x, lo, hi int32) int32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
