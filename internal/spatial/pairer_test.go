package spatial

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/order"
)

// sim runs a full merge simulation over 2D points under a queue
// configuration: the merged replacement of a pair is the midpoint of its
// parts. Returns the merge sequence and the total of the merge distances
// (a wirelength proxy).
func sim(t *testing.T, cfg order.Config, pts []geom.UV, useGrid bool) ([][2]int, float64) {
	t.Helper()
	p := append([]geom.UV(nil), pts...)
	boxAt := func(id int) geom.Rect { return geom.RectFromUV(p[id]) }
	dist := func(i, j int) float64 { return geom.DistUV(p[i], p[j]) }
	if useGrid {
		boxes := make([]geom.Rect, len(p))
		for i := range boxes {
			boxes[i] = boxAt(i)
		}
		// Every item is exact: DistUV of two points is DistRR of their
		// degenerate boxes bit for bit.
		exactAt := func(id int) (geom.Rect, bool) { return boxAt(id), true }
		cfg.Pairer = NewGridPairer(AutoCell(boxes), 0, exactAt, dist, cfg.Key)
	}
	q := order.New(cfg, len(pts), dist)
	var seq [][2]int
	var wire float64
	for batch := q.NextBatch(); len(batch) > 0; batch = q.NextBatch() {
		for _, pr := range batch {
			i, j := pr.I, pr.J
			seq = append(seq, [2]int{i, j})
			wire += geom.DistUV(p[i], p[j])
			p = append(p, geom.UV{U: (p[i].U + p[j].U) / 2, V: (p[i].V + p[j].V) / 2})
			q.Merged(len(p) - 1)
		}
	}
	if len(seq) != len(pts)-1 {
		t.Fatalf("merged %d pairs, want %d", len(seq), len(pts)-1)
	}
	return seq, wire
}

// uniformPts returns tie-free random points (distinct float coordinates make
// exact distance ties vanishingly unlikely).
func uniformPts(n int, seed int64) []geom.UV {
	r := rand.New(rand.NewSource(seed))
	pts := make([]geom.UV, n)
	for i := range pts {
		pts[i] = geom.UV{U: r.Float64() * 1e5, V: r.Float64() * 1e5}
	}
	return pts
}

// latticePts returns points on an integer lattice — rich in exact distance
// ties, exercising the deterministic tie-breaking.
func latticePts(side int) []geom.UV {
	pts := make([]geom.UV, 0, side*side)
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			pts = append(pts, geom.UV{U: float64(a) * 10, V: float64(b) * 10})
		}
	}
	return pts
}

// TestGridPairerMatchesScan is the pairer-equivalence differential test: the
// grid pairer must produce exactly the oracle's merge sequence and total
// wirelength on tie-free instances.
func TestGridPairerMatchesScan(t *testing.T) {
	for _, n := range []int{2, 3, 50, 400} {
		pts := uniformPts(n, int64(100+n))
		seqScan, wireScan := sim(t, order.Config{}, pts, false)
		seqGrid, wireGrid := sim(t, order.Config{}, pts, true)
		if wireScan != wireGrid {
			t.Fatalf("n=%d: wire %v (scan) != %v (grid)", n, wireScan, wireGrid)
		}
		for k := range seqScan {
			if seqScan[k] != seqGrid[k] {
				t.Fatalf("n=%d: merge %d = %v (scan) != %v (grid)", n, k, seqScan[k], seqGrid[k])
			}
		}
	}
}

// TestGridPairerMatchesScanUnderTies extends the differential to a
// tie-saturated lattice: both pairers break exact key ties toward the
// smallest index, so even degenerate instances must agree.
func TestGridPairerMatchesScanUnderTies(t *testing.T) {
	pts := latticePts(12)
	seqScan, wireScan := sim(t, order.Config{}, pts, false)
	seqGrid, wireGrid := sim(t, order.Config{}, pts, true)
	if wireScan != wireGrid {
		t.Fatalf("wire %v (scan) != %v (grid)", wireScan, wireGrid)
	}
	for k := range seqScan {
		if seqScan[k] != seqGrid[k] {
			t.Fatalf("merge %d = %v (scan) != %v (grid)", k, seqScan[k], seqGrid[k])
		}
	}
}

// TestDeterministicAcrossGOMAXPROCS: the parallel batch pairing must yield
// identical merge sequences at any worker count, for both pairers, even on
// tie-rich instances (the reproducibility regression test).
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	pts := latticePts(16) // 256 ≥ the parallel fan-out threshold
	for _, useGrid := range []bool{false, true} {
		prev := runtime.GOMAXPROCS(1)
		seq1, _ := sim(t, order.Config{}, pts, useGrid)
		runtime.GOMAXPROCS(8)
		seq8, _ := sim(t, order.Config{}, pts, useGrid)
		runtime.GOMAXPROCS(prev)
		if len(seq1) != len(seq8) {
			t.Fatalf("grid=%v: sequence lengths differ: %d vs %d", useGrid, len(seq1), len(seq8))
		}
		for k := range seq1 {
			if seq1[k] != seq8[k] {
				t.Fatalf("grid=%v: merge %d = %v (1 proc) != %v (8 procs)", useGrid, k, seq1[k], seq8[k])
			}
		}
	}
}

// TestGridPairerScans: the grid must do asymptotically less pairing work
// than the oracle on a uniform instance.
func TestGridPairerScans(t *testing.T) {
	pts := uniformPts(2000, 5)
	p := append([]geom.UV(nil), pts...)
	boxAt := func(id int) geom.Rect { return geom.RectFromUV(p[id]) }
	dist := func(i, j int) float64 { return geom.DistUV(p[i], p[j]) }
	run := func(pairer order.Pairer) int64 {
		q := order.New(order.Config{Pairer: pairer}, len(pts), dist)
		for batch := q.NextBatch(); len(batch) > 0; batch = q.NextBatch() {
			for _, pr := range batch {
				i, j := pr.I, pr.J
				p = append(p, geom.UV{U: (p[i].U + p[j].U) / 2, V: (p[i].V + p[j].V) / 2})
				q.Merged(len(p) - 1)
			}
		}
		return q.Scans()
	}
	boxes := make([]geom.Rect, len(pts))
	for i := range boxes {
		boxes[i] = boxAt(i)
	}
	exactAt := func(id int) (geom.Rect, bool) { return boxAt(id), true }
	gridScans := run(NewGridPairer(AutoCell(boxes), 0, exactAt, dist, nil))
	p = append([]geom.UV(nil), pts...)
	scanScans := run(nil)
	if gridScans <= 0 || scanScans <= 0 {
		t.Fatalf("scan counts not recorded: grid=%d scan=%d", gridScans, scanScans)
	}
	if gridScans*10 > scanScans {
		t.Errorf("grid did %d scans vs oracle %d — expected ≥10× fewer", gridScans, scanScans)
	}
	t.Logf("pair scans: grid %d vs oracle %d (%.1f×)", gridScans, scanScans,
		float64(scanScans)/float64(gridScans))
}
