package spatial

import (
	"repro/internal/geom"
	"repro/internal/order"
)

// GridPairer adapts Index to order.Pairer, the pluggable nearest-partner
// contract of the merging queue. It is the default engine above the router's
// size threshold; the all-pairs scan built into package order remains the
// oracle below it and for keys the grid cannot prune exactly.
//
// box supplies the current bounding box of an item at Insert time (for the
// router: the u/v bounds of the node's active region), and whether the item
// is exact: its pair distance to every other exact item is DistRR of their
// stored boxes, bit for bit (for the router: a committed node, whose
// rectangle is its box). dist is the exact pair distance and key the pair
// priority; key == nil means priority = distance. For exact results
// dist(i,j) must be ≥ DistRR of the two stored boxes and key(i,j,d) ≥ d,
// both as computed in floating point — see the package documentation on the
// clip's soundness, the box pre-filter and the exact shortcut.
type GridPairer struct {
	idx  *Index
	box  func(id int) (geom.Rect, bool)
	dist func(i, j int) float64
	key  func(i, j int, d float64) float64
	out  []order.Pair
}

var _ order.Pairer = (*GridPairer)(nil)
var _ keyer = (*GridPairer)(nil)

// NewGridPairer builds a GridPairer over an empty index (New) with the
// given cell edge, which holds until a batch query re-measures it with
// DensityCell; a cell ≤ 0 leaves it to the first filing. The index reserves
// room for ids 0..ids−1 up front: a merge queue over n items registers
// 2n−1 in all.
func NewGridPairer(cell float64, ids int, box func(id int) (geom.Rect, bool), dist func(i, j int) float64, key func(i, j int, d float64) float64) *GridPairer {
	if key == nil {
		key = func(_, _ int, d float64) float64 { return d }
	}
	p := &GridPairer{idx: New(cell), box: box, dist: dist, key: key}
	p.idx.reserve(ids)
	return p
}

// Index exposes the underlying grid (diagnostics and tests).
func (p *GridPairer) Index() *Index { return p.idx }

// Insert lists the item as late under its current bounding box and exact
// bit, until the next filing files it.
func (p *GridPairer) Insert(id int) {
	r, exact := p.box(id)
	p.idx.insert(id, r, exact)
}

// Delete retires a merged item.
func (p *GridPairer) Delete(id int) { p.idx.Delete(id) }

// pairKey implements keyer: the configured pair priority over the exact
// pair distance, which for two exact items is the box distance d.
func (p *GridPairer) pairKey(self, cand int, d float64, exact bool) float64 {
	if !exact {
		d = p.dist(self, cand)
	}
	return p.key(self, cand, d)
}

// distKeyer is GridPairer's keyer view that scores by the exact pair
// distance alone. The distance dominates the stored boxes' DistRR (dist
// must, for the pair key to), so the ring walk stays exact under it.
type distKeyer GridPairer

func (p *distKeyer) pairKey(self, cand int, d float64, exact bool) float64 {
	if exact {
		return d
	}
	return p.dist(self, cand)
}

// NearestFree returns id's nearest live partner by raw distance among the
// ids not marked in used, smallest index on ties: the anti-starvation
// partner of order's batch selection, answered as a single query. Within
// a round it follows the round's NearestAll with no mutation between, so it
// files nothing and walks the round's fresh snapshot, with no late item or
// stale record, as NearestAll's queries do.
func (p *GridPairer) NearestFree(id int, used []bool) (order.Pair, bool) {
	j, key := p.idx.single(id, (*distKeyer)(p), used)
	return pairOf(id, j, key)
}

// pairOf packs a query's answer for id: J = −1 and Key 0 when no partner
// exists.
func pairOf(id, j int, key float64) (order.Pair, bool) {
	if j < 0 {
		return order.Pair{I: id, J: -1}, false
	}
	return order.Pair{Key: key, I: id, J: j}, true
}

// NearestAll re-packs the index into a fresh snapshot for this batch when
// it lags the live set (see the package documentation), then spreads the
// queries over the CPUs. Queries only read the index, and every result is
// written by position with smallest-index tie-breaking, so the output and
// the scan count are identical at any GOMAXPROCS. Each block of queries
// adds its scans to the count once. The returned slice aliases an internal
// buffer valid until the next call.
func (p *GridPairer) NearestAll(ids []int) []order.Pair {
	p.idx.settle(true)
	if cap(p.out) < len(ids) {
		p.out = make([]order.Pair, len(ids))
	}
	out := p.out[:len(ids)]
	order.ParallelChunks(len(ids), func(_, lo, hi int) {
		var scans int64
		for t := lo; t < hi; t++ {
			j, key, n, _ := p.idx.nearest(ids[t], p, nil)
			scans += n
			out[t], _ = pairOf(ids[t], j, key)
		}
		p.idx.scans.Add(scans)
	})
	return out
}

// Scans reports cumulative candidate evaluations (the pairing-work metric).
func (p *GridPairer) Scans() int64 { return p.idx.Scans() }
