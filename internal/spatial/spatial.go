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
// each holding the items whose boxes overlap it. Items whose
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
//     It files the set into a packed snapshot: a cell-offset table over the
//     window and one record array in cell order, each record an item's box,
//     id and exact bit, ascending in id within a cell. The round's queries,
//     NearestAll's and the NearestFree calls that follow it with no
//     mutation between, walk the snapshot; it holds live items only, so
//     they read no bucket header, span or box table and test no liveness.
//   - Single queries (GridPairer.Nearest and NearestFree, and NearestBox,
//     which Greedy, internal/dme and the ECO dirty set query) file the
//     queued items one by one into growable buckets and keep the
//     incremental cadence: a full re-cell once the live count has halved
//     since the last build, a re-window once more than clampSlack live
//     items sit clamped at the window edge, and a sweep of dead bucket
//     entries once they outnumber live ones. Each is amortized against the
//     mutations that tripped it. The buckets are built when a single query
//     first needs them after a mutation: after a snapshot, in the
//     snapshot's own window and cell, from its filing less the items
//     re-inserted since, so every count is what buckets filed by the batch
//     query itself would give.
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
// clip box. The snapshot and the buckets share this walk, its clip and its
// tie-break; only the enumeration of a cell's candidates differs (a run of
// records, or bucket ids whose tombstones are skipped), so both visit the
// same cells and count the same scans. Exactness requires the candidate
// key to dominate the bounding-box distance: true for plain distance
// (greedy-DME, classic DME) and for the router's snaking-aware merge keys,
// which only add non-negative elongation excess to the distance.
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
// (the pre-filter). The skipped candidate still counts in Scans. This
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
// The pre-filter's distance is also the key's input when it can be. An
// item inserted through GridPairer carries an exact bit: its pair distance
// to every other exact item is DistRR of their stored boxes, bit for bit.
// The router marks every committed node exact (its box is its Region, and
// the distance of two committed nodes is DistRR of their Regions); a
// deferred node, whose octagon distance can exceed its bounds', is not.
// For two exact items the walk hands the distance it has computed to the
// key instead of calling the pair distance, so such candidates never load
// the caller's own item storage; NearestBox's key is that distance for
// every candidate. Items inserted through Index.Insert are not exact.
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
// exact is the item's exact bit (see the package documentation).
type itemSpan struct {
	cu0, cu1, cv0, cv1 int32
	overflow           bool
	exact              bool
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

// snapRec is one filing of an item in the packed snapshot: its stored box,
// id and exact bit, so a walk over the snapshot reads nothing else.
type snapRec struct {
	box   geom.Rect
	id    int32
	exact bool
}

// snapshot is the packed grid a batch query files the live set into: the
// records of window cell c are recs[off[c]:off[c+1]], in ascending id, and
// over holds the records of the oversized items, in ascending id.
type snapshot struct {
	off  []int32
	recs []snapRec
	over []snapRec
}

// Index is the uniform grid. All of its methods must be called from a
// single goroutine: queries settle the grid first (see the package
// documentation), which mutates it. GridPairer.NearestAll fans its queries
// out across goroutines only after settling, while nothing mutates the
// index.
type Index struct {
	cell float64
	// Window: window-relative cell (cu, cv) is cell cu + cv*w; (ou, ov) is
	// the absolute cell coordinate of (0, 0).
	ou, ov int32
	w, h   int32
	// The filed items live in one of two forms. packed: the last filing is
	// the snapshot a batch query filed the live set into, and cells is
	// stale. A mutation leaves it so until the next query settles, which
	// packs afresh (batch) or unpacks into buckets (single), so a walk that
	// finds the index packed reads a current snapshot. Otherwise cells[c]
	// is the growable bucket of cell c.
	packed  bool
	snap    snapshot
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
	// ids the last rebuild filed, DensityCell's sample and its spacings, and
	// the flat backing the buckets are carved from.
	countBuf []int32
	liveIDs  []int32
	sample   []sampleBox
	spacing  []float64
	flat     []int32

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
	return autoCell(boundsOf(boxes), len(boxes))
}

// autoCell is AutoCell over n boxes whose bounding box is bb.
func autoCell(bb geom.Rect, n int) float64 {
	edge := max(bb.Width(), bb.Height())
	cell := edge / math.Ceil(math.Sqrt(float64(n)))
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
	sample := make([]sampleBox, sampleSize(n))
	stride := n / len(sample)
	for a := range sample {
		sample[a].Rect = boxes[a*stride]
	}
	return densityCell(boundsOf(boxes), n, sample, make([]float64, 2*len(sample)))
}

// sampleSize is the number of boxes DensityCell samples from n: 4√n for
// small populations, so the sampling stays a vanishing fraction of the
// build it serves, within [16, 256] and at most n.
func sampleSize(n int) int {
	return min(max(int(4*math.Sqrt(float64(n))), 16), 256, n)
}

// densityCell is DensityCell over a population of n boxes with bounding
// box bb, from its sample: sampleSize(n) boxes at the stride n/sampleSize(n),
// in population order. vals is scratch of length 2·len(sample).
func densityCell(bb geom.Rect, n int, sample []sampleBox, vals []float64) float64 {
	s := len(sample)
	edges, nn := vals[:s], vals[s:s]
	for a := range sample {
		r := sample[a].Rect
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
		return autoCell(bb, n)
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

// setWindow sets the window to absolute cell range [u0, u1] × [v0, v1].
func (x *Index) setWindow(u0, u1, v0, v1 int32) {
	x.ou, x.ov = u0, v0
	x.w, x.h = u1-u0+1, v1-v0+1
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
		// A packed index has no buckets to unfile from: unpack files only
		// the ids still live or tombstoned, and this one is about to be
		// neither.
		for cv := sp.cv0; cv <= sp.cv1 && !x.packed; cv++ {
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
// box. The item is not exact: a keyer scores it by its own distance.
func (x *Index) Insert(id int, r geom.Rect) { x.insert(id, r, false) }

// insert is Insert with the item's exact bit.
func (x *Index) insert(id int, r geom.Rect, exact bool) {
	for len(x.spans) <= id {
		x.spans = append(x.spans, itemSpan{})
		x.boxes = append(x.boxes, geom.Rect{})
	}
	x.boxes[id] = r
	x.changed = true
	switch x.spans[id].state {
	case spanQueued:
		// Already queued: filed under the new box and exact bit.
		x.spans[id].exact = exact
		return
	case spanLive:
		x.unfile(id)
		x.n--
	case spanTomb:
		// Resurrected id: drop the stale tombstoned entries now, or the
		// purge sweep would mistake them for the new live filing.
		x.unfile(id)
	}
	x.spans[id] = itemSpan{state: spanQueued, exact: exact}
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
// the edge-clamp re-window or the dead-entry sweep when due. A snapshot
// with no mutation since needs nothing; after a mutation, its filing is
// first unpacked into buckets.
func (x *Index) settle() {
	switch {
	case x.w == 0:
		if x.n > 0 {
			x.rebuild(false, false)
		}
	case x.packed && !x.changed:
		// The batch query's snapshot is current: nothing to file.
	case x.n >= recellMinLive && 2*x.n <= x.peakLive:
		x.rebuilds.LiveDrop++
		x.rebuild(true, false)
	default:
		if x.packed {
			x.unpack()
		}
		for _, id := range x.pending {
			if x.spans[id].state == spanQueued {
				x.fileQueued(id)
			}
		}
		x.pending = x.pending[:0]
		switch {
		case x.clamped > clampSlack && 8*x.clamped > x.n:
			x.rebuilds.EdgeClamp++
			x.rebuild(false, false)
		case x.deadFiled > x.liveFiled+purgeSlack:
			x.purge()
		default:
			x.dropDeadOverflow()
		}
	}
}

// settleBatch brings the grid up to date for a batch query: when the live
// set changed since the last build, it re-files it into a snapshot whose
// window fits its bounding box, under a cell DensityCell measures for it.
func (x *Index) settleBatch() {
	if !x.changed {
		return
	}
	if x.w > 0 {
		x.rebuilds.LiveDrop++ // a first filing is no rebuild
	}
	x.rebuild(true, true)
}

// liveSpan records id's span in the current window as live, moving the
// item to the overflow list when the span covers more than maxSpanCells
// cells. clamped reports whether the window edge cut the span.
func (x *Index) liveSpan(id int32) (sp itemSpan, clamped bool) {
	sp, clamped = x.clampSpan(x.boxes[id])
	sp.state, sp.exact = spanLive, x.spans[id].exact
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
// all tombstones. It files them into the snapshot when pack is set (the
// batch cadence), else into buckets.
func (x *Index) rebuild(recell, pack bool) {
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
		case spanTomb:
			x.spans[id].state = spanEmpty
		}
	}
	x.liveIDs = ids
	x.pending, x.over = x.pending[:0], x.over[:0]
	x.liveFiled, x.deadFiled, x.clamped = 0, 0, 0
	x.peakLive = x.n
	x.changed = false
	x.packed = pack && len(ids) > 0
	if len(ids) == 0 {
		x.w, x.h, x.cells = 0, 0, x.cells[:0]
		return
	}
	if recell && len(ids) >= recellMinLive || x.cell == 0 {
		x.cell = x.measureCell(ids, bb)
	}
	x.setWindow(x.cellIdx(bb.ULo)-windowPad, x.cellIdx(bb.UHi)+windowPad,
		x.cellIdx(bb.VLo)-windowPad, x.cellIdx(bb.VHi)+windowPad)
	for _, id := range ids {
		if sp, _ := x.liveSpan(id); !sp.overflow {
			x.liveFiled += sp.cellCount()
		}
	}
	if pack {
		x.pack(ids)
	} else {
		x.fileBuckets(ids)
	}
}

// measureCell is DensityCell over the boxes of the live items ids, whose
// bounding box is bb, sampled in place.
func (x *Index) measureCell(ids []int32, bb geom.Rect) float64 {
	s := sampleSize(len(ids))
	stride := len(ids) / s
	x.sample = slices.Grow(x.sample[:0], s)[:s]
	for a := range x.sample {
		x.sample[a].Rect = x.boxes[ids[a*stride]]
	}
	x.spacing = slices.Grow(x.spacing[:0], 2*s)[:2*s]
	return densityCell(bb, len(ids), x.sample, x.spacing)
}

// countCells sets counts, one per window cell, to the number of bucket
// entries the recorded spans of ids that are still filed (live or
// tombstoned) occupy, and returns their total.
func (x *Index) countCells(ids []int32, counts []int32) int {
	clear(counts)
	total := 0
	for _, id := range ids {
		sp := x.spans[id]
		if sp.overflow || sp.state != spanLive && sp.state != spanTomb {
			continue
		}
		total += sp.cellCount()
		for cv := sp.cv0; cv <= sp.cv1; cv++ {
			row := cv * x.w
			for cu := sp.cu0; cu <= sp.cu1; cu++ {
				counts[row+cu]++
			}
		}
	}
	return total
}

// pack files the live items ids, whose spans are recorded, into the
// snapshot: a counting pass sizes each cell's run of records, then the
// items, taken in descending id, fill each run from its end, which leaves
// every run in ascending id.
func (x *Index) pack(ids []int32) {
	s := &x.snap
	cells := int(x.w) * int(x.h)
	s.off = slices.Grow(s.off[:0], cells+1)[:cells+1]
	total := x.countCells(ids, s.off[:cells])
	// Inclusive prefix sums: off[c] is the end of cell c's run until the
	// fill below has walked it back to the run's start.
	for c := 1; c < cells; c++ {
		s.off[c] += s.off[c-1]
	}
	s.off[cells] = int32(total)
	s.recs = slices.Grow(s.recs[:0], total)[:total]
	for k := len(ids) - 1; k >= 0; k-- {
		id := ids[k]
		sp := x.spans[id]
		if sp.overflow {
			continue
		}
		r := snapRec{box: x.boxes[id], id: id, exact: sp.exact}
		for cv := sp.cv0; cv <= sp.cv1; cv++ {
			row := cv * x.w
			for cu := sp.cu0; cu <= sp.cu1; cu++ {
				s.off[row+cu]--
				s.recs[s.off[row+cu]] = r
			}
		}
	}
	s.over = s.over[:0]
	for _, id := range x.over {
		s.over = append(s.over, snapRec{box: x.boxes[id], id: id, exact: x.spans[id].exact})
	}
}

// unpack builds the buckets single queries need from the snapshot's filing,
// in its window and cell: each bucket holds the ids filed there that are
// still live or tombstoned, exactly as if the snapshot's rebuild had filed
// buckets and the mutations since had been applied to them.
func (x *Index) unpack() {
	start := obs.Now()
	defer func() { x.rebuildTime += obs.Since(start) }()
	x.packed = false
	x.fileBuckets(x.liveIDs)
}

// fileBuckets files the recorded spans of ids that are still filed into a
// fresh bucket array, with a counting pass over one flat backing slice
// instead of growing each bucket by appends. Filing in the order of ids
// keeps every bucket in ascending id.
func (x *Index) fileBuckets(ids []int32) {
	cells := int(x.w) * int(x.h)
	if cap(x.cells) >= cells {
		x.cells = x.cells[:cells]
		clear(x.cells)
	} else {
		x.cells = make([][]int32, cells)
	}
	if cap(x.countBuf) < cells {
		x.countBuf = make([]int32, cells)
	}
	counts := x.countBuf[:cells]
	total := x.countCells(ids, counts)
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
		if sp := x.spans[id]; !sp.overflow && (sp.state == spanLive || sp.state == spanTomb) {
			x.file(id, sp)
		}
	}
}

// keyer scores candidate items against a fixed query item. It exists so the
// hot pairing path can run without allocating per-query closures: the
// implementation (typically a pairer) is bound once and reused for every
// query.
type keyer interface {
	// pairKey returns the pair priority of (self, cand). d is DistRR of
	// the two items' stored boxes as the walk computed it, and exact
	// reports that both items are exact, so that d is their pair distance
	// bit for bit. The key must be ≥ d in floating point, not only in exact
	// arithmetic: the clip and the box pre-filter both rest on that bound
	// (see the package documentation).
	pairKey(self, cand int, d float64, exact bool) float64
}

// walk is the state of one ring walk: the query, the best candidate so far
// and the clip box its key implies.
type walk struct {
	x         *Index
	k         keyer
	used      []bool
	q         geom.Rect
	self      int
	selfExact bool
	best      int
	bestKey   float64
	clip      cellBox
	scans     int64
}

// nearest returns the live item minimizing k.pairKey(self, ·), excluding
// self, dead items and, when used is non-nil, every id marked in used, or
// −1 when no candidate exists; exact key ties break toward the smallest id.
// It also returns how many candidates it scanned, for the caller to count.
// The query box is self's own stored box.
//
// The index must be settled, with nothing mutating it during the call; then
// nearest only reads it, so concurrent calls are safe. It walks the snapshot
// when the index is packed and the buckets otherwise: the ring, clip and
// tie-break are the same, only the enumeration of a cell's candidates
// differs. Items spanning several cells may be evaluated more than once
// (the ring walk does not deduplicate), so pairKey must be pure.
func (x *Index) nearest(self int, k keyer, used []bool) (best int, bestKey float64, scans int64) {
	// Set field by field: a composite literal is built aside and copied in.
	var w walk
	w.x, w.k, w.used = x, k, used
	w.q, w.self, w.selfExact = x.boxes[self], self, x.spans[self].exact
	w.best, w.bestKey = -1, math.Inf(1)
	off, recs := x.snap.off, x.snap.recs
	if x.packed {
		w.records(x.snap.over)
	} else {
		w.entries(x.over)
	}
	if x.w == 0 {
		return w.best, w.bestKey, w.scans
	}
	sp, _ := x.clampSpan(w.q)
	qc := cellBox{sp.cu0, sp.cu1, sp.cv0, sp.cv1}
	w.clip = x.clipBox(w.q, w.bestKey)
	for r := int32(0); ; r++ {
		ring := cellBox{qc.u0 - r, qc.u1 + r, qc.v0 - r, qc.v1 + r}
		var strips [4]cellBox
		for _, st := range strips[:ringStrips(&strips, ring, r)] {
			// Loop bounds re-read the clip, which shrinks whenever the best
			// key improves.
			for cv := max(st.v0, w.clip.v0); cv <= min(st.v1, w.clip.v1); cv++ {
				row := cv * x.w
				for cu := max(st.u0, w.clip.u0); cu <= min(st.u1, w.clip.u1); cu++ {
					c := row + cu
					if x.packed {
						if lo, hi := off[c], off[c+1]; lo < hi {
							w.records(recs[lo:hi])
						}
					} else if b := x.cells[c]; len(b) > 0 {
						w.entries(b)
					}
				}
			}
		}
		if ring.u0 <= w.clip.u0 && ring.u1 >= w.clip.u1 && ring.v0 <= w.clip.v0 && ring.v1 >= w.clip.v1 {
			return w.best, w.bestKey, w.scans
		}
	}
}

// records considers a run of snapshot records, which are all live.
func (w *walk) records(recs []snapRec) {
	for i := range recs {
		r := &recs[i]
		if id := int(r.id); id != w.self && (w.used == nil || !w.used[id]) {
			w.scans++
			if d := geom.DistRR(w.q, r.box); w.admits(id, d) {
				w.score(id, d, r.exact && w.selfExact)
			}
		}
	}
}

// entries considers a bucket's entries, skipping tombstones.
func (w *walk) entries(ids []int32) {
	for _, id32 := range ids {
		id := int(id32)
		if sp := &w.x.spans[id]; id != w.self && sp.state == spanLive && (w.used == nil || !w.used[id]) {
			w.scans++
			if d := geom.DistRR(w.q, w.x.boxes[id]); w.admits(id, d) {
				w.score(id, d, sp.exact && w.selfExact)
			}
		}
	}
}

// admits is the box pre-filter: it reports that candidate id, whose stored
// box lies at distance d from the query box, may still beat the best so
// far. A candidate whose d exceeds the best key, or equals it at a larger
// id, cannot: every key is ≥ d in floating point (the keyer contract), so
// skipping its key call never changes a result; it only saves the call.
// The candidate still counts in scans.
func (w *walk) admits(id int, d float64) bool {
	return !(d > w.bestKey || (d == w.bestKey && id > w.best))
}

// score keys a candidate the pre-filter admitted, whose box distance is d,
// and makes it the best so far if it wins, shrinking the clip.
func (w *walk) score(id int, d float64, exact bool) {
	if key := w.k.pairKey(w.self, id, d, exact); key < w.bestKey || (key == w.bestKey && id < w.best) {
		w.best, w.bestKey = id, key
		w.clip = w.x.clipBox(w.q, key)
	}
}

// clipBox returns the window cells that can hold a candidate whose key is
// at most key against query box q: q inflated on every side by key plus
// the float-safe margin, mapped to cells like the items' own filing and
// clamped to the window. An infinite key gives the whole window. The
// margin's product is rounded on its own (float64), so no platform fuses
// it into the addition and moves a clip edge across a cell.
func (x *Index) clipBox(q geom.Rect, key float64) cellBox {
	k := key + float64((key+math.Abs(q.ULo)+math.Abs(q.UHi)+math.Abs(q.VLo)+math.Abs(q.VHi))*clipMargin)
	return cellBox{
		x.windowCell(q.ULo-k, x.ou, x.w), x.windowCell(q.UHi+k, x.ou, x.w),
		x.windowCell(q.VLo-k, x.ov, x.h), x.windowCell(q.VHi+k, x.ov, x.h),
	}
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
	best, dist, scans := x.nearest(self, boxKeyer{}, nil)
	x.scans.Add(scans)
	if best < 0 {
		return -1, 0, false
	}
	return best, dist, true
}

// boxKeyer scores a candidate by DistRR of the two stored boxes, which
// meets the keyer bound with equality: the distance the walk's pre-filter
// already computed. It holds nothing, so passing it as a keyer allocates
// nothing.
type boxKeyer struct{}

func (boxKeyer) pairKey(_, _ int, d float64, _ bool) float64 { return d }

func clamp32(x, lo, hi int32) int32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
