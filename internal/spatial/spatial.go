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
// # Amortized deletion and re-cell
//
// Delete is a tombstone: the item is marked dead in O(1) and its bucket
// entries are purged lazily, either when dead entries outnumber live ones
// (a full sweep, amortized O(1) per delete) or at the next rebuild. Queries
// skip dead entries. The grid re-cells itself as the live set evolves, on
// two complementary triggers: when the live count falls to half its peak
// since the last build — merge rounds halve the live set and fatten the
// survivors — and when the measured scan rate degrades, i.e. a rolling
// window of queries averages more than scanRateFactor times the candidate
// evaluations per query measured just after the last rebuild (the
// population schedule alone can leave the grid mis-celled for a long
// stretch when the live-drop threshold lands at an unlucky phase; the
// scan-rate trigger watches the actual query work instead). Rebuilds re-fit
// the window and re-measure the cell with DensityCell, keeping bucket
// occupancy near the sweet spot on clustered (power-law) placements where a
// global extent/√n cell is far too coarse for the dense clusters. All
// rebuild triggers are driven by deterministic counters — maintained by the
// single mutating goroutine, or (the query counters) read only between
// mutations — and cell size never affects query results, so merge sequences
// remain exactly reproducible. Rebuilds are counted by trigger in
// RebuildStats (see Rebuilds), which the router surfaces in its run stats.
//
// Queries run an expanding ring search. Cells at Chebyshev ring r around the
// query's own cells lie at L∞ distance ≥ (r−1)·cell from the query box, so
// the search stops as soon as the best key found under-runs the next ring's
// lower bound. Exactness therefore requires the candidate key to dominate
// the bounding-box distance: true for plain distance (greedy-DME, classic
// DME) and for the router's snaking-aware merge keys, which only add
// non-negative elongation excess to the distance. Keys that can drop below
// the distance (the delay-target bias enhancement) defeat the pruning bound,
// and the router falls back to the all-pairs oracle for them.
//
// Exact key ties break toward the smallest item id. Ties are always visited
// before pruning cuts in (the ring bound is strict), so the tie-break is
// global, matching the all-pairs scan and keeping runs reproducible.
//
// # Exact shortcuts
//
// Before it scores a candidate, a query takes DistRR between its query box
// and the candidate's stored box, and skips the key call when that
// distance exceeds the best key so far, or equals it at a larger id
// (outranked). The skipped candidate still counts in Scans, so the
// scan-rate trigger and the pairing-work metric see the same numbers. This
// pre-filter needs the key bound to hold in floating point, not only in
// exact arithmetic: key ≥ DistRR of the stored boxes as computed. Every
// caller meets it. The router's key is DistRR of the same rectangles;
// DistOO, which makes the same two gap1 calls and takes a max with two
// more terms; or its merge key, that distance plus a non-negative excess,
// which rounds to no less than the distance. internal/dme's segment scorer
// and the ECO dirty-set key are DistRR of the stored boxes themselves.
// GridPairer.NearestFree, the anti-starvation query, scores by the router's
// exact distance, which meets the same bound.
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

// Rebuild-policy constants. The thresholds are deliberately coarse powers of
// two: every trigger is amortized against the mutations that tripped it.
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

	// Scan-rate rebuild policy (see maybeRebuild and scanRateExceeded).
	// The live-drop trigger re-cells on a fixed population schedule and
	// trusts DensityCell's estimate outright; when that estimate runs too
	// coarse for an instance — measured on the power-law 50k circuit,
	// whose candidate evaluations per query ran ~5× the 100k circuit's
	// from the very first round — every bucket of the hot clusters is fat
	// and stays fat through every scheduled rebuild. The scan-rate trigger
	// watches the work directly: after each rebuild the mean candidate
	// evaluations per query over the first scanBaselineQueries queries
	// become the baseline, and whenever a later window of scanRateWindow
	// queries averages more than scanRateFactor times that baseline —
	// clamped into [scanRateFloor, scanRateCap], so noise on a cheap grid
	// never fires and a baseline that is itself degenerate cannot excuse
	// the degeneracy — the index re-cells with the cell estimate trimmed
	// by half (cellTrim, floored at cellTrimMin: the scan counter only
	// sees candidate evaluations, so a too-fine cell — whose cost is
	// walking empty cells — must be bounded a priori). The trim persists
	// across later live-drop rebuilds; the feedback is self-limiting
	// because a successful trim drops the measured rate below the
	// re-trigger threshold.
	scanBaselineQueries = 64
	scanRateWindow      = 256
	scanRateFactor      = 3
	// scanRateFloor/scanRateCap clamp the firing threshold (candidate
	// evaluations per query). A well-celled grid measures ~2-4 items per
	// visited bucket over ~9-12 visited cells, i.e. ~32/query; below that
	// a 3×-baseline excess is noise, and a rolling mean beyond 3× that
	// norm indicates fat buckets no matter what the baseline says.
	scanRateFloor = 32
	scanRateCap   = 96
	// cellTrimMin bounds the persistent cell-estimate trim.
	cellTrimMin = 0.25

	// Cell-walk (un-trim) policy: the scan counter only sees candidate
	// evaluations, so it is blind to the cost of an over-fine grid — rings
	// of empty cells walked per query. The cell-walk trigger watches that
	// cost directly (cells visited per query, same baseline/window cadence
	// as the scan trigger) and, when it fires on a trimmed grid, doubles
	// cellTrim back toward 1 and re-cells: the trim that once paid for
	// itself (fat clusters) can turn persistently over-fine as the live set
	// thins and regions fatten. The trigger is armed only while
	// cellTrim < 1 — an untrimmed grid walking many cells means DensityCell
	// itself chose that cell, and doubling past its estimate is not this
	// trigger's business. cellWalkFloor is the minimum cells/query worth
	// reacting to (a well-celled query walks ~9-25); cellWalkCap is the
	// absolute arm applied to the baseline chunk itself, mirroring
	// scanRateCap (a static over-fine grid never drifts 3× beyond its own
	// baseline, so only the absolute arm can catch it).
	cellWalkFloor = 64
	cellWalkCap   = 256
)

// rateSignal classifies the query-rate trigger's verdict.
type rateSignal int

const (
	rateNone   rateSignal = iota
	rateCoarse            // candidate scans/query degraded: cell too coarse
	rateFine              // cells walked/query degraded on a trimmed grid: cell too fine
)

// RebuildStats counts index rebuilds by trigger: the live count halving
// (LiveDrop), too many items clamped at the window edge (EdgeClamp), the
// rolling candidate-scan rate exceeding the post-rebuild baseline
// (ScanRate: cell too coarse, trim halved), and the rolling cells-walked
// rate exceeding it on a trimmed grid (CellWalk: cell too fine, trim
// doubled back toward 1).
type RebuildStats struct {
	LiveDrop, EdgeClamp, ScanRate, CellWalk int
}

// Total returns the total rebuild count.
func (r RebuildStats) Total() int { return r.LiveDrop + r.EdgeClamp + r.ScanRate + r.CellWalk }

// Add accumulates another index's rebuild counts (aggregation across the
// per-shard indices of a sharded run).
func (r *RebuildStats) Add(o RebuildStats) {
	r.LiveDrop += o.LiveDrop
	r.EdgeClamp += o.EdgeClamp
	r.ScanRate += o.ScanRate
	r.CellWalk += o.CellWalk
}

// spanState tracks how an item relates to the bucket array.
type spanState uint8

const (
	spanEmpty spanState = iota // not filed anywhere
	spanLive                   // filed and alive
	spanTomb                   // dead, bucket entries not yet purged
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

// Index is the uniform bucket grid. Insert and Delete must be called from a
// single goroutine; Nearest and NearestScored are safe to call concurrently
// with each other (but not with Insert/Delete), which the batch pairing of
// GridPairer relies on.
type Index struct {
	cell float64
	// Window: cells[cu + cv*w] holds the bucket of window-relative cell
	// (cu, cv); (ou, ov) is the absolute cell coordinate of (0, 0).
	ou, ov int32
	w, h   int32
	cells  [][]int32
	spans  []itemSpan
	boxes  []geom.Rect
	over   []int32 // ids of oversized items (eagerly maintained)
	n      int     // live items

	// Amortization counters (single-writer).
	liveFiled int // bucket entries of live items
	deadFiled int // bucket entries of tombstoned items
	clamped   int // live inserts clamped at the window edge since last build
	peakLive  int // max live count since last rebuild (re-cell trigger)

	// Query-rate trigger state (single-writer; the cumulative counters it
	// reads are atomics, but they are only inspected between mutations,
	// after all concurrent queries have completed, so every decision is
	// deterministic). buildQueries/buildScans/buildCells snapshot the
	// cumulative counters at the last rebuild; baseRate and baseCellRate
	// are the post-rebuild baselines (scans/query and cells-walked/query;
	// 0 while still being established); ckQueries/ckScans/ckCells
	// checkpoint the rolling window shared by both directions.
	buildQueries, buildScans, buildCells int64
	baseRate, baseCellRate               float64
	ckQueries, ckScans, ckCells          int64
	// cellTrim scales every DensityCell estimate; scan-rate rebuilds halve
	// it (down to cellTrimMin) when the measured rate says the estimate
	// runs too coarse for this instance. 0 means 1 (never trimmed).
	cellTrim float64

	rebuilds RebuildStats
	// rebuildTime accumulates wall time spent inside rebuild. Measured
	// unconditionally (two clock reads per rebuild, no allocations) so
	// traced callers can attribute pairing time to index maintenance.
	rebuildTime time.Duration

	countBuf []int32 // bulk-fill scratch: per-cell entry counts

	// entrySlab backs bucket growth: when an append outgrows a bucket's
	// capacity, the doubled backing comes from this chunked slab instead of
	// its own heap allocation. After a bulk build every bucket sits at exact
	// capacity, so without the slab nearly every post-build insert pays a
	// malloc; with it, growth costs only the copy. Abandoned backings (the
	// outgrown originals, and every bucket on rebuild) simply become garbage
	// with their chunk.
	entrySlab []int32

	scans       atomic.Int64
	queries     atomic.Int64 // Nearest/NearestScored calls (rate triggers)
	cellsWalked atomic.Int64 // grid cells visited across all queries (cell-walk trigger)
}

// New returns an empty index with the given cell edge (≤ 0 selects 1). The
// window is established from the first insert and re-fitted by amortized
// rebuilds as items land outside it; callers that know the population up
// front should prefer NewBounded, which avoids the warm-up rebuilds.
func New(cell float64) *Index {
	if !(cell > 0) {
		cell = 1
	}
	return &Index{cell: cell}
}

// NewBounded returns an empty index presized to the given bounding box, so
// inserts within it never trigger a re-windowing rebuild.
func NewBounded(cell float64, bb geom.Rect) *Index {
	x := New(cell)
	x.setWindow(x.cellIdx(bb.ULo)-windowPad, x.cellIdx(bb.UHi)+windowPad,
		x.cellIdx(bb.VLo)-windowPad, x.cellIdx(bb.VHi)+windowPad)
	return x
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
// factor. The estimate is floored so the dense window stays at most
// maxCellsPerItem cells per item, and raised to the samples' median box
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
	// Floor: keep the dense window at O(n) cells.
	area := bb.Width() * bb.Height()
	if floor := math.Sqrt(area / float64(maxCellsPerItem*n)); cell < floor {
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

// setWindow allocates the dense bucket array for absolute cell range
// [u0, u1] × [v0, v1].
func (x *Index) setWindow(u0, u1, v0, v1 int32) {
	x.ou, x.ov = u0, v0
	x.w, x.h = u1-u0+1, v1-v0+1
	x.cells = make([][]int32, int(x.w)*int(x.h))
}

// Len returns the number of live items.
func (x *Index) Len() int { return x.n }

// Cell returns the current cell edge (diagnostics; it changes on re-cell
// rebuilds).
func (x *Index) Cell() float64 { return x.cell }

// Box returns the bounding box item id was inserted with.
func (x *Index) Box(id int) geom.Rect { return x.boxes[id] }

// Scans reports the cumulative number of candidate evaluations across all
// queries.
func (x *Index) Scans() int64 { return x.scans.Load() }

// Rebuilds reports how many times the index rebuilt itself, by trigger.
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

// unfile removes id's bucket (or overflow) entries eagerly, adjusting the
// filed counters for the span's previous state. Used on refile and on
// resurrecting a tombstoned id; bulk removal goes through purge/rebuild.
func (x *Index) unfile(id int) {
	sp := x.spans[id]
	if sp.state == spanEmpty {
		return
	}
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

// Insert files item id under bounding box r. Ids may be sparse and only
// grow; re-inserting a live id refiles it under the new box.
func (x *Index) Insert(id int, r geom.Rect) {
	for len(x.spans) <= id {
		x.spans = append(x.spans, itemSpan{})
		x.boxes = append(x.boxes, geom.Rect{})
	}
	switch x.spans[id].state {
	case spanLive:
		x.unfile(id)
		x.n--
	case spanTomb:
		// Resurrected id: drop the stale tombstoned entries now, or the
		// purge sweep would mistake them for the new live filing.
		x.unfile(id)
	}
	x.boxes[id] = r
	if x.w == 0 {
		x.setWindow(x.cellIdx(r.ULo)-windowPad, x.cellIdx(r.UHi)+windowPad,
			x.cellIdx(r.VLo)-windowPad, x.cellIdx(r.VHi)+windowPad)
	}
	sp, clamped := x.clampSpan(r)
	sp.state = spanLive
	if sp.cellCount() > maxSpanCells {
		sp.overflow = true
		x.over = append(x.over, int32(id))
	} else {
		x.file(int32(id), sp)
		x.liveFiled += sp.cellCount()
		if clamped {
			x.clamped++
		}
	}
	x.spans[id] = sp
	x.n++
	if x.n > x.peakLive {
		x.peakLive = x.n
	}
	x.maybeRebuild()
}

// InsertAll bulk-files boxes under ids 0..len(boxes)-1 into an empty or
// fresh index, equivalent to inserting them one by one but building every
// bucket at exact capacity in one counting pass (two allocations total
// instead of per-bucket append growth). Panics if any of the ids is
// already filed.
func (x *Index) InsertAll(boxes []geom.Rect) {
	if len(boxes) == 0 {
		return
	}
	for len(x.spans) < len(boxes) {
		x.spans = append(x.spans, itemSpan{})
		x.boxes = append(x.boxes, geom.Rect{})
	}
	ids := make([]int32, len(boxes))
	for i, r := range boxes {
		if x.spans[i].state != spanEmpty {
			panic("spatial: InsertAll over filed ids")
		}
		ids[i] = int32(i)
		x.boxes[i] = r
	}
	if x.w == 0 {
		bb := boundsOf(boxes)
		x.setWindow(x.cellIdx(bb.ULo)-windowPad, x.cellIdx(bb.UHi)+windowPad,
			x.cellIdx(bb.VLo)-windowPad, x.cellIdx(bb.VHi)+windowPad)
	}
	x.bulkFile(ids, boxes)
	x.n += len(boxes)
	if x.n > x.peakLive {
		x.peakLive = x.n
	}
}

// Delete unfiles item id. Deleting a dead or unknown id is a no-op. Bucket
// entries are tombstoned, not removed: the sweep happens lazily once dead
// entries outnumber live ones, so Delete is O(1) amortized regardless of
// how many cells the item spanned.
func (x *Index) Delete(id int) {
	if id < 0 || id >= len(x.spans) || x.spans[id].state != spanLive {
		return
	}
	sp := x.spans[id]
	if sp.overflow {
		x.unfile(id) // overflow list is scanned by every query: keep it tight
	} else {
		x.spans[id].state = spanTomb
		c := sp.cellCount()
		x.liveFiled -= c
		x.deadFiled += c
	}
	x.n--
	x.maybeRebuild()
}

// maybeRebuild applies the amortized maintenance policy; see the package
// comment. Called after every mutation; all triggers compare counters
// maintained by the single mutating goroutine — the scan-rate trigger also
// reads the cumulative query counters, which are stable between mutations —
// so behavior is deterministic.
func (x *Index) maybeRebuild() {
	switch {
	case x.n >= recellMinLive && 2*x.n <= x.peakLive:
		x.rebuilds.LiveDrop++
		x.rebuild(true)
	case x.clamped > clampSlack && 8*x.clamped > x.n:
		x.rebuilds.EdgeClamp++
		x.rebuild(false)
	default:
		switch x.rateTrigger() {
		case rateCoarse:
			x.rebuilds.ScanRate++
			if x.cellTrim == 0 {
				x.cellTrim = 1
			}
			if x.cellTrim > cellTrimMin {
				x.cellTrim /= 2
			}
			x.rebuild(true)
		case rateFine:
			x.rebuilds.CellWalk++
			if x.cellTrim *= 2; x.cellTrim > 1 {
				x.cellTrim = 1
			}
			x.rebuild(true)
		default:
			if x.deadFiled > x.liveFiled+purgeSlack {
				x.purge()
			}
		}
	}
}

// rateTrigger implements the bidirectional query-rate rebuild trigger. It
// establishes baselines — candidate scans/query and cells-walked/query —
// over the first scanBaselineQueries queries after a rebuild, then compares
// each subsequent scanRateWindow-query window's means against
// scanRateFactor times the baselines. The scan direction (cell too coarse)
// has its firing threshold clamped into [scanRateFloor, scanRateCap]; the
// cell-walk direction (cell too fine) fires only on a trimmed grid, above
// max(factor × baseline, cellWalkFloor), with the absolute cellWalkCap arm
// on the baseline chunk (see the policy constants). The coarse direction
// takes priority when both would fire. Advancing the baseline and window
// checkpoints mutates single-writer state, so this must only be called from
// the mutating goroutine (maybeRebuild).
func (x *Index) rateTrigger() rateSignal {
	if x.n < recellMinLive {
		return rateNone
	}
	qs, ss, cs := x.queries.Load(), x.scans.Load(), x.cellsWalked.Load()
	// Once the trim is floored, a rebuild cannot make the cell any finer:
	// the absolute arm is withdrawn (otherwise an instance whose intrinsic
	// rate exceeds the cap at every cell size would trip a futile O(n)
	// rebuild after every baseline window for the rest of the run), and
	// only genuine drift beyond the measured baseline can still fire.
	// Symmetrically, the fine direction is armed only while a trim is in
	// effect — undoing the trim is all it is allowed to do.
	trimFloored := x.cellTrim > 0 && x.cellTrim <= cellTrimMin
	trimmed := x.cellTrim > 0 && x.cellTrim < 1
	if x.baseRate == 0 {
		if dq := qs - x.buildQueries; dq >= scanBaselineQueries {
			x.baseRate = float64(ss-x.buildScans) / float64(dq)
			if x.baseRate < 1 {
				x.baseRate = 1 // degenerate windows: avoid a zero baseline
			}
			x.baseCellRate = float64(cs-x.buildCells) / float64(dq)
			if x.baseCellRate < 1 {
				x.baseCellRate = 1
			}
			x.ckQueries, x.ckScans, x.ckCells = qs, ss, cs
			// The absolute arms apply to the baseline chunk itself: the
			// router's queries arrive in one burst per merge round, and
			// population-triggered rebuilds can recur before a second
			// burst — if the first post-rebuild burst already runs beyond
			// a cap, waiting for a window to confirm it means never
			// firing at all.
			if x.baseRate > scanRateCap && !trimFloored {
				return rateCoarse
			}
			if trimmed && x.baseCellRate > cellWalkCap {
				return rateFine
			}
		}
		return rateNone
	}
	dq := qs - x.ckQueries
	if dq < scanRateWindow {
		return rateNone
	}
	scanRate := float64(ss-x.ckScans) / float64(dq)
	cellRate := float64(cs-x.ckCells) / float64(dq)
	x.ckQueries, x.ckScans, x.ckCells = qs, ss, cs
	threshold := scanRateFactor * x.baseRate
	if threshold < scanRateFloor {
		threshold = scanRateFloor
	}
	if threshold > scanRateCap && !trimFloored {
		threshold = scanRateCap
	}
	if scanRate > threshold {
		return rateCoarse
	}
	cellThreshold := scanRateFactor * x.baseCellRate
	if cellThreshold < cellWalkFloor {
		cellThreshold = cellWalkFloor
	}
	if trimmed && cellRate > cellThreshold {
		return rateFine
	}
	return rateNone
}

// purge sweeps tombstoned entries out of every bucket. Cost is one pass
// over the filed entries, amortized against the deletes that created them.
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
	for id := range x.spans {
		if x.spans[id].state == spanTomb {
			x.spans[id].state = spanEmpty
		}
	}
	x.deadFiled = 0
}

// rebuild re-files every live item under a fresh window fitted to the live
// bounding box — with a re-measured DensityCell edge when recell is set —
// dropping all tombstones. Triggered when the live count halves (regions
// have fattened and thinned: time to re-adapt the cell) or when too many
// items sit clamped at the window edge.
func (x *Index) rebuild(recell bool) {
	start := obs.Now()
	defer func() { x.rebuildTime += obs.Since(start) }()
	live := make([]int32, 0, x.n)
	liveBoxes := make([]geom.Rect, 0, x.n)
	for id := range x.spans {
		if x.spans[id].state == spanLive {
			live = append(live, int32(id))
			liveBoxes = append(liveBoxes, x.boxes[id])
		} else {
			x.spans[id].state = spanEmpty
		}
	}
	x.over = x.over[:0]
	x.liveFiled, x.deadFiled, x.clamped = 0, 0, 0
	x.peakLive = x.n
	// Restart the query-rate triggers: new window, new cell, new baselines.
	x.buildQueries, x.buildScans, x.buildCells = x.queries.Load(), x.scans.Load(), x.cellsWalked.Load()
	x.baseRate, x.ckQueries, x.ckScans = 0, 0, 0
	x.baseCellRate, x.ckCells = 0, 0
	if len(live) == 0 {
		x.w, x.h, x.cells = 0, 0, nil
		return
	}
	if recell && len(live) >= recellMinLive {
		x.cell = DensityCell(liveBoxes)
		if x.cellTrim > 0 {
			x.cell *= x.cellTrim
		}
	}
	bb := boundsOf(liveBoxes)
	x.setWindow(x.cellIdx(bb.ULo)-windowPad, x.cellIdx(bb.UHi)+windowPad,
		x.cellIdx(bb.VLo)-windowPad, x.cellIdx(bb.VHi)+windowPad)
	x.bulkFile(live, liveBoxes)
}

// bulkFile files the given items into the (fresh) bucket array with a
// counting pass over one flat backing slice, instead of growing each bucket
// by appends: two allocations however many cells and items are involved.
func (x *Index) bulkFile(ids []int32, boxes []geom.Rect) {
	if cap(x.countBuf) < len(x.cells) {
		x.countBuf = make([]int32, len(x.cells))
	}
	counts := x.countBuf[:len(x.cells)]
	for i := range counts {
		counts[i] = 0
	}
	total := 0
	for k, id := range ids {
		sp, _ := x.clampSpan(boxes[k])
		sp.state = spanLive
		if sp.cellCount() > maxSpanCells {
			sp.overflow = true
			x.over = append(x.over, id)
		} else {
			total += sp.cellCount()
			for cv := sp.cv0; cv <= sp.cv1; cv++ {
				row := cv * x.w
				for cu := sp.cu0; cu <= sp.cu1; cu++ {
					counts[row+cu]++
				}
			}
		}
		x.spans[id] = sp
	}
	flat := make([]int32, 0, total)
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

// Keyer scores candidate items against a fixed query item. It exists so the
// hot pairing path can run without allocating per-query closures: the
// implementation (typically a pairer) is bound once and reused for every
// query.
type Keyer interface {
	// PairKey returns the pair priority of (self, cand). It must be ≥
	// DistRR of the two items' stored boxes as computed in floating point,
	// not only in exact arithmetic: the ring pruning and the box
	// pre-filter both rest on that bound (see the package documentation).
	PairKey(self, cand int) float64
}

// NearestScored returns the live item minimizing k.PairKey(self, ·),
// excluding self, dead items and, when used is non-nil, every id marked in
// used. Exact key ties break toward the smallest id; ok is false when no
// candidate exists. The query box is self's own stored box. Items spanning
// several cells may be evaluated more than once (the ring walk does not
// deduplicate), so PairKey must be pure — which also makes NearestScored
// safe to call from concurrent goroutines between index mutations.
func (x *Index) NearestScored(self int, k Keyer, used []bool) (best int, bestKey float64, ok bool) {
	q := x.boxes[self]
	best, bestKey = -1, math.Inf(1)
	x.queries.Add(1)
	var scans, cells int64
	for _, id32 := range x.over {
		id := int(id32)
		if id == self || used != nil && used[id] {
			continue
		}
		scans++
		if x.outranked(q, id, best, bestKey) {
			continue
		}
		if key := k.PairKey(self, id); key < bestKey || (key == bestKey && id < best) {
			best, bestKey = id, key
		}
	}
	if x.w > 0 {
		qu0 := clamp32(x.cellIdx(q.ULo)-x.ou, 0, x.w-1)
		qu1 := clamp32(x.cellIdx(q.UHi)-x.ou, qu0, x.w-1)
		qv0 := clamp32(x.cellIdx(q.VLo)-x.ov, 0, x.h-1)
		qv1 := clamp32(x.cellIdx(q.VHi)-x.ov, qv0, x.h-1)
		for r := int32(0); ; r++ {
			// Ring r cells are ≥ (r−1)·cell away from the query box; stop
			// once no unvisited cell can beat the best key. The bound is
			// strict, so equal-key candidates are always visited and the
			// smallest-id tie-break is global.
			if best >= 0 && float64(r-1)*x.cell > bestKey {
				break
			}
			u0, u1 := qu0-r, qu1+r
			v0, v1 := qv0-r, qv1+r
			var strips [4][4]int32
			nstrips := x.ringStrips(&strips, u0, u1, v0, v1, r)
			for s := 0; s < nstrips; s++ {
				st := strips[s]
				for cv := st[2]; cv <= st[3]; cv++ {
					row := cv * x.w
					for cu := st[0]; cu <= st[1]; cu++ {
						cells++
						for _, id32 := range x.cells[row+cu] {
							id := int(id32)
							if id == self || x.spans[id].state != spanLive || used != nil && used[id] {
								continue
							}
							scans++
							if x.outranked(q, id, best, bestKey) {
								continue
							}
							if key := k.PairKey(self, id); key < bestKey || (key == bestKey && id < best) {
								best, bestKey = id, key
							}
						}
					}
				}
			}
			if u0 <= 0 && v0 <= 0 && u1 >= x.w-1 && v1 >= x.h-1 {
				break // every cell visited
			}
		}
	}
	x.scans.Add(scans)
	x.cellsWalked.Add(cells)
	if best < 0 {
		return -1, 0, false
	}
	return best, bestKey, true
}

// outranked is the box pre-filter of the ring walks: it reports that
// candidate id cannot beat the best so far (best, bestKey) because the
// distance between the query box q and its stored box already exceeds
// bestKey, or equals it while id is larger. Every key is ≥ that distance in
// floating point (the Keyer contract), so skipping the key call never
// changes a result; it only saves the call. The candidate still counts in
// scans.
func (x *Index) outranked(q geom.Rect, id, best int, bestKey float64) bool {
	d := geom.DistRR(q, x.boxes[id])
	return d > bestKey || (d == bestKey && id > best)
}

// ringStrips writes the window-clamped cell strips of Chebyshev ring r
// around [u0+r, u1−r] × [v0+r, v1−r] (i.e. the expanded box minus its
// interior) into strips, returning how many are non-empty. Ring 0 is the
// whole query box. Each strip is {cu0, cu1, cv0, cv1}.
//
// The surrounding expanding-ring loop is deliberately written out in both
// NearestScored and Nearest rather than abstracted behind a per-candidate
// callback: the candidate visit is the hot instruction of the whole
// router, and an escaping closure or interface dispatch here is exactly the
// per-query allocation the Keyer path exists to avoid. The two copies must
// stay in sync — in particular the strict ring bound
// ((r−1)·cell > best, which keeps smallest-id tie-breaking global), the box
// pre-filter (outranked) and the whole-window coverage break.
func (x *Index) ringStrips(strips *[4][4]int32, u0, u1, v0, v1, r int32) int {
	n := 0
	add := func(a0, a1, b0, b1 int32) {
		// Intersect with the window; strips entirely outside vanish.
		if a0 < 0 {
			a0 = 0
		}
		if a1 > x.w-1 {
			a1 = x.w - 1
		}
		if b0 < 0 {
			b0 = 0
		}
		if b1 > x.h-1 {
			b1 = x.h - 1
		}
		if a0 > a1 || b0 > b1 {
			return
		}
		strips[n] = [4]int32{a0, a1, b0, b1}
		n++
	}
	if r == 0 {
		add(u0, u1, v0, v1)
		return n
	}
	add(u0, u1, v0, v0)     // bottom strip
	add(u0, u1, v1, v1)     // top strip
	add(u0, u0, v0+1, v1-1) // left column
	add(u1, u1, v0+1, v1-1) // right column
	return n
}

// Nearest returns the live item minimizing key(id), excluding ids for which
// skip returns true. For the ring pruning and the box pre-filter to be
// exact, key(id) must be ≥ the bounding-box distance DistRR(q, Box(id)) as
// computed in floating point — pass that distance itself, or any
// distance-dominating merge key. Exact key ties break toward the smallest
// id. ok is false when no candidate exists.
//
// Items spanning several cells may be evaluated more than once (the ring
// walk does not deduplicate); key must therefore be pure, which also makes
// Nearest safe to call from concurrent goroutines between index mutations.
// Hot callers that query an indexed item against its peers should prefer
// NearestScored, which avoids the per-call closures.
func (x *Index) Nearest(q geom.Rect, skip func(int) bool, key func(id int) float64) (best int, bestKey float64, ok bool) {
	best, bestKey = -1, math.Inf(1)
	x.queries.Add(1)
	var scans, cells int64
	consider := func(id32 int32) {
		id := int(id32)
		if x.spans[id].state != spanLive {
			return
		}
		if skip != nil && skip(id) {
			return
		}
		scans++
		if x.outranked(q, id, best, bestKey) {
			return
		}
		k := key(id)
		if k < bestKey || (k == bestKey && id < best) {
			best, bestKey = id, k
		}
	}
	for _, id := range x.over {
		consider(id)
	}
	if x.w > 0 {
		qu0 := clamp32(x.cellIdx(q.ULo)-x.ou, 0, x.w-1)
		qu1 := clamp32(x.cellIdx(q.UHi)-x.ou, qu0, x.w-1)
		qv0 := clamp32(x.cellIdx(q.VLo)-x.ov, 0, x.h-1)
		qv1 := clamp32(x.cellIdx(q.VHi)-x.ov, qv0, x.h-1)
		for r := int32(0); ; r++ {
			if best >= 0 && float64(r-1)*x.cell > bestKey {
				break
			}
			u0, u1 := qu0-r, qu1+r
			v0, v1 := qv0-r, qv1+r
			var strips [4][4]int32
			nstrips := x.ringStrips(&strips, u0, u1, v0, v1, r)
			for s := 0; s < nstrips; s++ {
				st := strips[s]
				for cv := st[2]; cv <= st[3]; cv++ {
					row := cv * x.w
					for cu := st[0]; cu <= st[1]; cu++ {
						cells++
						for _, id := range x.cells[row+cu] {
							consider(id)
						}
					}
				}
			}
			if u0 <= 0 && v0 <= 0 && u1 >= x.w-1 && v1 >= x.h-1 {
				break
			}
		}
	}
	x.scans.Add(scans)
	x.cellsWalked.Add(cells)
	if best < 0 {
		return -1, 0, false
	}
	return best, bestKey, true
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
