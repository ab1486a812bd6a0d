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
// each holding the items whose boxes overlap it. A filing fits the window to
// the live items' bounding box, so no filed item lies outside it.
// Items spanning more than maxSpanCells cells go to a small overflow list
// that every query scans linearly — oversized regions appear near the top of
// the merge tree, when few items are live, so the list stays short.
//
// # Filing: one packed snapshot, brought up to date at query time
//
// The grid has one form, a packed snapshot: a cell-offset table over the
// window and one record array in cell order, each record an item's box, id
// and exact bit. A filing packs the live set into it. Mutations only
// record, in O(1). Insert lists the item as late, filed after the
// snapshot: every query scans the late list linearly, as it scans the
// overflow list, and Delete drops a late item from it. Delete, and an
// Insert that moves a filed item, leave a filed item's records stale: the
// index counts a stale filing, and a walk over a snapshot with stale
// records skips each record whose item is no longer filed, a check that a
// walk over an up-to-date snapshot does not make.
//
// A query over a snapshot that lags the live set, by a late item or a
// stale filing, files the live set anew, on the single goroutine that owns
// the index, when the index has no window yet, when it is a batch query,
// or when the single queries' lag work since the last filing exceeds
// repackWork per live item. Every filing packs the live set into a window
// fitted to its bounding box. A filing into an index with a window, and a
// batch query's, re-measure the cell with DensityCell for the live
// population once recellMinLive items are live; an index without a cell
// measures one at its first filing.
//
//   - The batch query (GridPairer.NearestAll, once per merge round) files
//     whenever the snapshot lags. Merge rounds retire most of the live set
//     and replace it with fatter merged regions, so a grid fitted to the
//     previous round mis-sizes every cell. The round's queries,
//     NearestAll's and the NearestFree calls that follow it with no
//     mutation between, walk a snapshot with no late item and no stale
//     record.
//   - Single queries (NearestBox, which internal/dme and the ECO dirty set
//     query, and GridPairer.NearestFree) tally their lag work: the late
//     items they scan and the stale records they skip. Each O(live) filing
//     is paid for by the lag work that tripped it, so the single queries
//     never spend much more on the lag than their filings cost.
//
// A walk's answer breaks ties by id and its scans count every record it
// reaches, so neither depends on the order of a cell's records. The rule
// reads counters kept by the single owning goroutine, and cell size never
// affects query results, so merge sequences and scan counts are exactly
// reproducible. RebuildStats counts the filings (LiveDrop). The first
// filing of an index, which packs the items inserted so far, counts as
// none.
//
// # Ring walk and clip
//
// Every query scans the overflow list, runs one expanding ring walk
// (nearest), and scans the late list last, when its best key is tightest:
// ring r is the square annulus of cells at Chebyshev distance r around the
// query box's own cells, each cell a run of records. Each ring is clipped
// to the clip box, the cells that can hold a candidate within the best key
// found so far: those the reach covers, the query box inflated on every
// side by that key plus a float-safe margin, re-derived whenever the best
// key improves. The walk stops once the rings it has walked cover the clip
// box. A candidate whose box lies wholly beyond the reach cannot win, and
// is scanned without a distance. A stale record is skipped without
// counting a scan. Exactness requires the candidate key to dominate the
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
// the computed reach edges lie beyond every exact edge a winning candidate
// can reach: such a candidate lies within the reach. Clip edges map to
// cells through the very floor(v/cell) that files the items, which is
// monotone, so such a candidate always has a filed cell inside the clip.
// A candidate or a cell is pruned only when it lies wholly beyond an
// inflated edge: the comparison is strict, so equal-key candidates are
// always visited and the smallest-id tie-break is global, matching the
// all-pairs scan.
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

// Upkeep constants.
const (
	// windowPad inflates a filing's window by this many cells per side.
	windowPad = 2
	// repackWork sets the single queries' filing threshold: their lag work
	// since the last filing exceeds repackWork per live item. Of 1, 2, 4
	// and 8, 8 built internal/dme's tree over the flat-zst benchmark's
	// input fastest.
	repackWork = 8
	// recellMinLive disables re-measuring the cell for tiny live sets,
	// where any cell size is fine and the measurement would dominate.
	recellMinLive = 32
	// maxCellsPerItem caps the dense window at this many cells per live
	// item; DensityCell's estimate is floored so the array stays O(n).
	maxCellsPerItem = 8
	// clipMargin scales the clip box's float-safe margin (see the package
	// documentation): 2⁻⁴⁰ of the key plus the query box's coordinate
	// magnitudes, some 2¹¹ times the rounding error it must absorb.
	clipMargin = 0x1p-40
)

// RebuildStats counts the index's filings of a changed live set: a batch
// query files anew whenever the snapshot lags the live set, and a single
// query once the single queries' lag work exceeds repackWork per live item
// (see the package documentation). An index's first filing counts as none.
type RebuildStats struct {
	LiveDrop int
}

// Total returns the total rebuild count.
func (r RebuildStats) Total() int { return r.LiveDrop }

// Add accumulates another index's rebuild counts (aggregation across the
// per-shard indices of a sharded run).
func (r *RebuildStats) Add(o RebuildStats) { r.LiveDrop += o.LiveDrop }

// itemState is an id's standing in the index.
type itemState uint8

const (
	itemEmpty itemState = iota // not live; any record of it is stale
	itemFiled                  // live, with current records in the snapshot
	itemLate                   // live, listed at late[at]
)

// item is what the index keeps per id besides its box: its state, its
// exact bit (see the package documentation) and, while it is late, its
// position in the late list.
type item struct {
	state itemState
	exact bool
	at    int32
}

// cellBox is an inclusive window-relative cell range.
type cellBox struct{ u0, u1, v0, v1 int32 }

// cells returns the number of cells the range covers.
func (b cellBox) cells() int { return int(b.u1-b.u0+1) * int(b.v1-b.v0+1) }

// snapRec is one filing of an item in the packed snapshot: its stored box,
// id and exact bit, so a walk over the snapshot reads nothing else.
type snapRec struct {
	box   geom.Rect
	id    int32
	exact bool
}

// record returns item id's snapshot record.
func (x *Index) record(id int32) snapRec {
	return snapRec{box: x.boxes[id], id: id, exact: x.items[id].exact}
}

// snapshot is the packed grid a filing files the live set into: the
// records of window cell c are recs[off[c]:off[c+1]], and over holds the
// records of the oversized items.
type snapshot struct {
	off  []int32
	recs []snapRec
	over []snapRec
}

// Index is the uniform grid. All of its methods must be called from a
// single goroutine: queries bring the snapshot up to date first (see the
// package documentation), which mutates it. GridPairer.NearestAll fans its
// queries out across goroutines only after that, while nothing mutates the
// index.
type Index struct {
	cell float64
	// Window: window-relative cell (cu, cv) is cell cu + cv*w; (ou, ov) is
	// the absolute cell coordinate of (0, 0). w is 0 until the first
	// filing, and after a filing of an empty live set.
	ou, ov int32
	w, h   int32
	// snap is the last filing. late lists the items inserted since, in no
	// order; stale counts the filed items deleted or moved since. lagWork
	// tallies the single queries' lag work since.
	snap    snapshot
	late    []int32
	stale   int
	lagWork int64
	items   []item
	boxes   []geom.Rect
	n       int // live items

	rebuilds RebuildStats
	// rebuildTime accumulates wall time spent filing. Measured
	// unconditionally (two clock reads per filing, no allocations) so
	// traced callers can attribute pairing time to index maintenance.
	rebuildTime time.Duration

	// Filing scratch, reused by every filing: the ids the last filing
	// filed, ascending; the cells of each item being filed; and
	// DensityCell's sample and its spacings.
	filedIDs []int32
	spans    []cellBox
	sample   []sampleBox
	spacing  []float64

	scans atomic.Int64
}

// New returns an empty index with the given cell edge; a cell ≤ 0 leaves
// the edge to the first filing, which measures it with DensityCell. Every
// filing fits the window to the items live then, and each after the first
// re-measures the cell (see the package documentation).
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
// finer, which keeps the hot clusters' cells small.
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
// [0, n−1]. It equals clamp(cellIdx(v)−o, 0, n−1) wherever cellIdx fits an
// int32, and clamps in floating point so that a coordinate far outside the
// window (a late item's, or an inflated clip edge, which may be infinite)
// never overflows the conversion.
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

// cellSpan returns the window cells box r overlaps, clamped to the window.
func (x *Index) cellSpan(r geom.Rect) cellBox {
	return cellBox{
		x.windowCell(r.ULo, x.ou, x.w), x.windowCell(r.UHi, x.ou, x.w),
		x.windowCell(r.VLo, x.ov, x.h), x.windowCell(r.VHi, x.ov, x.h),
	}
}

// Len returns the number of live items.
func (x *Index) Len() int { return x.n }

// Scans reports the cumulative number of candidate evaluations across all
// queries.
func (x *Index) Scans() int64 { return x.scans.Load() }

// Rebuilds reports how many times a query filed the index anew after its
// first filing. Filings run when a query brings the snapshot up to date, so
// mutations alone never move the count.
func (x *Index) Rebuilds() RebuildStats { return x.rebuilds }

// RebuildTime reports the cumulative wall time spent filing the index.
func (x *Index) RebuildTime() time.Duration { return x.rebuildTime }

// Insert files item id under bounding box r as late, until the next
// filing. Ids may be sparse and only grow; re-inserting a live id moves it
// to the new box. The item is not exact: a keyer scores it by its own
// distance.
func (x *Index) Insert(id int, r geom.Rect) { x.insert(id, r, false) }

// insert is Insert with the item's exact bit.
func (x *Index) insert(id int, r geom.Rect, exact bool) {
	for len(x.items) <= id {
		x.items = append(x.items, item{})
		x.boxes = append(x.boxes, geom.Rect{})
	}
	it := &x.items[id]
	switch it.state {
	case itemLate: // a move in place
		x.boxes[id], it.exact = r, exact
		return
	case itemFiled: // a move: its records hold the box r replaces
		x.stale++
	default:
		x.n++
	}
	x.boxes[id] = r
	*it = item{state: itemLate, exact: exact, at: int32(len(x.late))}
	x.late = append(x.late, int32(id))
}

// InsertAll inserts boxes under ids 0..len(boxes)-1, as Insert does one by
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
	if more := ids - len(x.items); more > 0 {
		x.items = slices.Grow(x.items, more)
		x.boxes = slices.Grow(x.boxes, more)
	}
}

// Delete retires item id in O(1). Deleting a dead or unknown id is a no-op.
func (x *Index) Delete(id int) {
	if id < 0 || id >= len(x.items) {
		return
	}
	switch it := &x.items[id]; it.state {
	case itemFiled: // its records go stale
		x.stale++
		it.state = itemEmpty
	case itemLate: // it leaves the list, the last item taking its place
		last := x.late[len(x.late)-1]
		x.late[it.at], x.items[last].at = last, it.at
		x.late = x.late[:len(x.late)-1]
		it.state = itemEmpty
	default:
		return
	}
	x.n--
}

// dirty returns how many late items and stale filings the snapshot lags
// the live set by; at 0 it holds the live set as its filing left it.
func (x *Index) dirty() int { return len(x.late) + x.stale }

// single answers a single query: it brings the snapshot up to date
// (settle), walks it, and counts the walk's scans and its lag work.
func (x *Index) single(self int, k keyer, used []bool) (int, float64) {
	x.settle(false)
	best, key, scans, lag := x.nearest(self, k, used)
	x.scans.Add(scans)
	x.lagWork += lag
	return best, key
}

// settle brings a lagging snapshot up to date for a query, by the filing
// rule (see the package documentation): when the index has no window,
// when the query is a batch query, or when the single queries' lag work
// since the last filing exceeds repackWork per live item. Each filing into
// an index with a window counts a LiveDrop.
func (x *Index) settle(batch bool) {
	switch {
	case x.dirty() == 0:
	case x.w == 0:
		x.rebuild(batch)
	case batch || x.lagWork > repackWork*int64(x.n):
		x.rebuilds.LiveDrop++
		x.rebuild(true)
	}
}

// rebuild packs the live set into a fresh snapshot whose window fits its
// bounding box, re-measuring the cell with DensityCell when recell is set
// and at least recellMinLive items are live, or when the index has no cell
// yet.
func (x *Index) rebuild(recell bool) {
	start := obs.Now()
	defer func() { x.rebuildTime += obs.Since(start) }()
	ids := x.gather()
	if len(ids) == 0 {
		x.w, x.h, x.snap.over = 0, 0, x.snap.over[:0]
		return
	}
	bb := x.boxes[ids[0]]
	for _, id := range ids[1:] {
		bb = geom.Union(bb, x.boxes[id])
	}
	if recell && len(ids) >= recellMinLive || x.cell == 0 {
		x.cell = x.measureCell(ids, bb)
	}
	x.ou, x.ov = x.cellIdx(bb.ULo)-windowPad, x.cellIdx(bb.VLo)-windowPad
	x.w = x.cellIdx(bb.UHi) + windowPad - x.ou + 1
	x.h = x.cellIdx(bb.VHi) + windowPad - x.ov + 1
	x.pack(ids)
}

// gather returns the live set in ascending id, every item of it now filed:
// the last filing's ids still filed merged with the late items. It empties
// the late list and the stale filings and restarts the lag work.
func (x *Index) gather() []int32 {
	kept := x.filedIDs[:0]
	for _, id := range x.filedIDs {
		if x.items[id].state == itemFiled {
			kept = append(kept, id)
		}
	}
	late := x.late
	for _, id := range late {
		x.items[id].state = itemFiled
	}
	slices.Sort(late)
	// Merge from the back, so no kept id is overwritten before it moves.
	i := len(kept) - 1
	ids := slices.Grow(kept, len(late))[:len(kept)+len(late)]
	for j, k := len(late)-1, len(ids)-1; j >= 0; k-- {
		if i >= 0 && ids[i] > late[j] {
			ids[k], i = ids[i], i-1
		} else {
			ids[k], j = late[j], j-1
		}
	}
	x.filedIDs = ids
	x.late, x.stale, x.lagWork = x.late[:0], 0, 0
	return ids
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

// pack files the live items ids, ascending, into the snapshot: a counting
// pass sizes each cell's run of records, then the items, taken in
// descending id, fill each run from its end, which leaves every run in
// ascending id. An item spanning more than maxSpanCells cells files one
// overflow record instead.
func (x *Index) pack(ids []int32) {
	s := &x.snap
	cells := int(x.w) * int(x.h)
	s.off = slices.Grow(s.off[:0], cells+1)[:cells+1]
	clear(s.off)
	s.over = s.over[:0]
	x.spans = slices.Grow(x.spans[:0], len(ids))[:len(ids)]
	for k, id := range ids {
		sp := x.cellSpan(x.boxes[id])
		if sp.cells() > maxSpanCells {
			s.over = append(s.over, x.record(id))
			sp = cellBox{0, -1, 0, -1} // no cell
		}
		x.spans[k] = sp
		for cv := sp.v0; cv <= sp.v1; cv++ {
			row := cv * x.w
			for cu := sp.u0; cu <= sp.u1; cu++ {
				s.off[row+cu]++
			}
		}
	}
	// Inclusive prefix sums: off[c] is the end of cell c's run until the
	// fill below has walked it back to the run's start.
	var end int32
	for c, cnt := range s.off {
		end += cnt
		s.off[c] = end
	}
	s.recs = slices.Grow(s.recs[:0], int(end))[:end]
	for k := len(ids) - 1; k >= 0; k-- {
		id, sp := ids[k], x.spans[k]
		r := x.record(id)
		for cv := sp.v0; cv <= sp.v1; cv++ {
			row := cv * x.w
			for cu := sp.u0; cu <= sp.u1; cu++ {
				s.off[row+cu]--
				s.recs[s.off[row+cu]] = r
			}
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

// walk is the state of one query: the best candidate so far, the reach
// its key implies (the query box inflated by the key plus the clip's
// float-safe margin) and the clip box, the window cells the reach covers;
// the candidates it scanned, and the stale records it skipped.
type walk struct {
	x         *Index
	k         keyer
	used      []bool
	q         geom.Rect
	self      int
	selfExact bool
	best      int
	bestKey   float64
	reach     geom.Rect
	clip      cellBox
	scans     int64
	skipped   int64
}

// nearest returns the live item minimizing k.pairKey(self, ·), excluding
// self, dead items and, when used is non-nil, every id marked in used, or
// −1 when no candidate exists; exact key ties break toward the smallest id.
// It also returns how many candidates it scanned, for the caller to count,
// and its lag work: the late items it scanned and the stale records it
// skipped. The query box is self's own stored box.
//
// The snapshot must be up to date, with nothing mutating the index during
// the call; then nearest only reads it, so concurrent calls are safe. Items
// spanning several cells may be evaluated more than once (the ring walk
// does not deduplicate), so pairKey must be pure.
func (x *Index) nearest(self int, k keyer, used []bool) (best int, bestKey float64, scans, lag int64) {
	// Set field by field: a composite literal is built aside and copied in.
	var w walk
	w.x, w.k, w.used = x, k, used
	w.q, w.self, w.selfExact = x.boxes[self], self, x.items[self].exact
	w.best = -1
	w.setBest(math.Inf(1))
	stale := x.stale > 0
	w.records(x.snap.over, stale)
	if x.w > 0 {
		w.rings(stale)
	}
	w.lateItems(x.late)
	return w.best, w.bestKey, w.scans, w.skipped + int64(len(x.late))
}

// rings runs the ring walk over the snapshot's cells, which hold stale
// records when stale is set.
func (w *walk) rings(stale bool) {
	x := w.x
	off, recs := x.snap.off, x.snap.recs
	qc := x.cellSpan(w.q)
	for r := int32(0); ; r++ {
		ring := cellBox{qc.u0 - r, qc.u1 + r, qc.v0 - r, qc.v1 + r}
		var strips [4]cellBox
		for _, st := range strips[:ringStrips(&strips, ring, r)] {
			// Loop bounds re-read the clip, which shrinks whenever the best
			// key improves.
			for cv := max(st.v0, w.clip.v0); cv <= min(st.v1, w.clip.v1); cv++ {
				row := cv * x.w
				for cu := max(st.u0, w.clip.u0); cu <= min(st.u1, w.clip.u1); cu++ {
					if lo, hi := off[row+cu], off[row+cu+1]; lo < hi {
						w.records(recs[lo:hi], stale)
					}
				}
			}
		}
		if ring.u0 <= w.clip.u0 && ring.u1 >= w.clip.u1 && ring.v0 <= w.clip.v0 && ring.v1 >= w.clip.v1 {
			return
		}
	}
}

// records considers a run of records, skipping, when stale is set, the
// snapshot records of items no longer filed.
func (w *walk) records(recs []snapRec, stale bool) {
	scans := int64(0)
	for i := range recs {
		r := &recs[i]
		id := int(r.id)
		if id == w.self || w.used != nil && w.used[id] {
			continue
		}
		if stale && w.x.items[id].state != itemFiled {
			w.skipped++
			continue
		}
		scans++
		if outOfReach(&w.reach, &r.box) {
			continue
		}
		if d := geom.DistRR(w.q, r.box); w.admits(id, d) {
			w.score(id, d, r.exact && w.selfExact)
		}
	}
	w.scans += scans
}

// lateItems considers the late items. It runs after the ring walk, when
// the reach is tight and most late items lie out of it, so it tests that
// before self, and counts every late item as a scan but self and the used
// ones.
func (w *walk) lateItems(ids []int32) {
	w.scans += int64(len(ids))
	for _, id32 := range ids {
		switch id := int(id32); {
		case w.used != nil && w.used[id]:
			w.scans--
		case outOfReach(&w.reach, &w.x.boxes[id]): // never self's own box
		case id == w.self:
			w.scans--
		default:
			if d := geom.DistRR(w.q, w.x.boxes[id]); w.admits(id, d) {
				w.score(id, d, w.x.items[id].exact && w.selfExact)
			}
		}
	}
}

// outOfReach reports that box b lies wholly beyond the reach on some side,
// so that, by the clip's float-safe bound (see the package documentation),
// its DistRR from the query box exceeds the best key and the pre-filter
// would reject it. It ORs one bit per side and branches once, on the
// result: which side a far candidate lies on is unpredictable.
func outOfReach(reach, b *geom.Rect) bool {
	return bit(b.ULo > reach.UHi)|bit(b.UHi < reach.ULo)|bit(b.VLo > reach.VHi)|bit(b.VHi < reach.VLo) != 0
}

// bit is 1 for true and 0 for false, which the compiler computes without a
// branch.
func bit(c bool) uint8 {
	if c {
		return 1
	}
	return 0
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
// and makes it the best so far if it wins, shrinking the reach and clip.
func (w *walk) score(id int, d float64, exact bool) {
	if key := w.k.pairKey(w.self, id, d, exact); key < w.bestKey || (key == w.bestKey && id < w.best) {
		w.best = id
		w.setBest(key)
	}
}

// setBest makes key the best key and derives the reach, the query box
// inflated on every side by key plus the float-safe margin, and the clip,
// the window cells the reach covers, mapped like the items' own filing and
// clamped to the window. An infinite key reaches everything. The margin's
// product is rounded on its own (float64), so no platform fuses it into
// the addition and moves a clip edge across a cell.
func (w *walk) setBest(key float64) {
	q := &w.q
	k := key + float64((key+math.Abs(q.ULo)+math.Abs(q.UHi)+math.Abs(q.VLo)+math.Abs(q.VHi))*clipMargin)
	w.bestKey = key
	w.reach = geom.Rect{ULo: q.ULo - k, UHi: q.UHi + k, VLo: q.VLo - k, VHi: q.VHi + k}
	if w.x.w > 0 {
		w.clip = w.x.cellSpan(w.reach)
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
// is false when no other live item exists. It brings the snapshot up to
// date first, as a single query (see the package documentation).
func (x *Index) NearestBox(self int) (best int, dist float64, ok bool) {
	best, dist = x.single(self, boxKeyer{}, nil)
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
