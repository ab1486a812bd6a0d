package order_test

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/order"
	"repro/internal/spatial"
)

// TestAntiStarvation constructs the pathology the rule exists for: one item
// whose pairings are all heavily penalized by the key. Without force-pairing
// it would survive to the very last merge; with the rule it must be merged
// within a few rounds of becoming starved. It runs on the built-in scan and
// on the grid pairer, whose NearestFree answers the starved item's partner
// query, and the two merge sequences must be identical.
func TestAntiStarvation(t *testing.T) {
	var seqs [2][][2]int
	for k, grid := range []bool{false, true} {
		seqs[k] = starvationRun(t, grid)
	}
	if len(seqs[0]) != len(seqs[1]) {
		t.Fatalf("scan merged %d pairs, grid %d", len(seqs[0]), len(seqs[1]))
	}
	for m := range seqs[0] {
		if seqs[0][m] != seqs[1][m] {
			t.Fatalf("merge %d: scan %v, grid %v", m, seqs[0][m], seqs[1][m])
		}
	}
}

func starvationRun(t *testing.T, grid bool) [][2]int {
	const n = 32
	const pariah = 0
	coords := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		coords = append(coords, float64(i))
	}
	dist := func(i, j int) float64 { return math.Abs(coords[i] - coords[j]) }
	key := func(i, j int, d float64) float64 {
		if i == pariah || j == pariah {
			return d + 1e9 // everything involving the pariah looks terrible
		}
		return d
	}
	cfg := order.Config{Key: key}
	if grid {
		box := func(id int) geom.Rect { return geom.RectFromUV(geom.UV{U: coords[id]}) }
		boxes := make([]geom.Rect, n)
		for i := range boxes {
			boxes[i] = box(i)
		}
		// dist is not DistRR of the boxes in code, so no item is exact.
		inexact := func(id int) (geom.Rect, bool) { return box(id), false }
		cfg.Pairer = spatial.NewGridPairer(spatial.AutoCell(boxes), 0, inexact, dist, key)
	}
	q := order.New(cfg, n, dist)
	var seq [][2]int
	pariahMergedAt := -1
	for batch := q.NextBatch(); len(batch) > 0; batch = q.NextBatch() {
		for _, p := range batch {
			if p.I == pariah || p.J == pariah {
				pariahMergedAt = len(seq)
			}
			seq = append(seq, [2]int{p.I, p.J})
			coords = append(coords, (coords[p.I]+coords[p.J])/2)
			q.Merged(len(coords) - 1)
		}
	}
	if pariahMergedAt < 0 {
		t.Fatalf("grid=%v: pariah never merged", grid)
	}
	// Without anti-starvation the pariah merges last (index n−2 = 30).
	// Rounds shrink the live set by ~half; after starveRounds rounds the
	// pariah must be force-paired, well before the end.
	if pariahMergedAt >= n-2 {
		t.Errorf("grid=%v: pariah merged at index %d (the final merge) — starved", grid, pariahMergedAt)
	}
	t.Logf("grid=%v: pariah merged at %d of %d", grid, pariahMergedAt, n-1)
	return seq
}
