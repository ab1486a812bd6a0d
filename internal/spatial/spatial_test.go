package spatial

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randRect returns a small random rectangle in uv-space.
func randRect(r *rand.Rand, span, ext float64) geom.Rect {
	u := r.Float64() * span
	v := r.Float64() * span
	return geom.Rect{ULo: u, UHi: u + r.Float64()*ext, VLo: v, VHi: v + r.Float64()*ext}
}

// bruteNearest is the oracle: linear scan over live boxes by DistRR.
func bruteNearest(boxes []geom.Rect, live []bool, q geom.Rect, skip func(int) bool) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for j, alive := range live {
		if !alive || (skip != nil && skip(j)) {
			continue
		}
		d := geom.DistRR(q, boxes[j])
		if d < bestD || (d == bestD && j < best) {
			best, bestD = j, d
		}
	}
	return best, bestD
}

func TestNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 300
	boxes := make([]geom.Rect, n)
	live := make([]bool, n)
	x := New(40) // span 1000 / ~25 cells
	for i := range boxes {
		boxes[i] = randRect(r, 1000, 30)
		live[i] = true
		x.Insert(i, boxes[i])
	}
	check := func() {
		for i := range boxes {
			if !live[i] {
				continue
			}
			skip := func(j int) bool { return j == i }
			wantJ, wantD := bruteNearest(boxes, live, boxes[i], skip)
			gotJ, gotD, ok := x.NearestBox(i)
			if wantJ < 0 {
				if ok {
					t.Fatalf("item %d: got %d, want none", i, gotJ)
				}
				continue
			}
			if !ok || gotJ != wantJ || gotD != wantD {
				t.Fatalf("item %d: got (%d, %v), want (%d, %v)", i, gotJ, gotD, wantJ, wantD)
			}
		}
	}
	check()
	// Interleave deletes and re-inserts, re-checking invariants.
	for round := 0; round < 3; round++ {
		for k := 0; k < n/4; k++ {
			i := r.Intn(n)
			if live[i] {
				x.Delete(i)
				live[i] = false
			}
		}
		for k := 0; k < n/8; k++ {
			i := r.Intn(n)
			if !live[i] {
				boxes[i] = randRect(r, 1000, 30)
				x.Insert(i, boxes[i])
				live[i] = true
			}
		}
		check()
	}
}

func TestNearestOverflowItems(t *testing.T) {
	// Items far larger than maxSpanCells cells must still be found exactly.
	x := New(10)
	boxes := []geom.Rect{
		{ULo: 0, UHi: 5000, VLo: 0, VHi: 5000}, // oversized → overflow list
		{ULo: 6000, UHi: 6001, VLo: 0, VHi: 1},
		{ULo: 9000, UHi: 9001, VLo: 0, VHi: 1},
	}
	for i, b := range boxes {
		x.Insert(i, b)
	}
	for i := range boxes {
		skip := func(j int) bool { return j == i }
		live := []bool{true, true, true}
		wantJ, wantD := bruteNearest(boxes, live, boxes[i], skip)
		gotJ, gotD, ok := x.NearestBox(i)
		if !ok || gotJ != wantJ || gotD != wantD {
			t.Fatalf("item %d: got (%d, %v, %v), want (%d, %v)", i, gotJ, gotD, ok, wantJ, wantD)
		}
	}
	// Deleting an overflow item removes it from consideration.
	x.Delete(0)
	gotJ, _, ok := x.NearestBox(1)
	if !ok || gotJ != 2 {
		t.Fatalf("after delete: got (%d, %v), want item 2", gotJ, ok)
	}
}

func TestAutoCell(t *testing.T) {
	if c := AutoCell(nil); c != 1 {
		t.Errorf("AutoCell(nil) = %v, want 1", c)
	}
	pt := geom.RectFromPoint(geom.Point{X: 3, Y: 4})
	if c := AutoCell([]geom.Rect{pt}); c != 1 {
		t.Errorf("AutoCell(point) = %v, want 1", c)
	}
	boxes := []geom.Rect{
		{ULo: 0, UHi: 0, VLo: 0, VHi: 0},
		{ULo: 100, UHi: 100, VLo: 100, VHi: 100},
		{ULo: 50, UHi: 50, VLo: 20, VHi: 20},
		{ULo: 10, UHi: 10, VLo: 90, VHi: 90},
	}
	c := AutoCell(boxes)
	if c <= 0 || c > 100 {
		t.Errorf("AutoCell = %v, want in (0, 100]", c)
	}
}

func TestInsertDeleteBookkeeping(t *testing.T) {
	x := New(10)
	x.Insert(0, geom.Rect{ULo: 0, UHi: 1, VLo: 0, VHi: 1})
	x.Insert(5, geom.Rect{ULo: 20, UHi: 21, VLo: 0, VHi: 1}) // sparse id
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	x.Delete(3) // unknown id: no-op
	x.Delete(0)
	x.Delete(0) // double delete: no-op
	if x.Len() != 1 {
		t.Fatalf("Len after deletes = %d, want 1", x.Len())
	}
	// Re-insert with a new box refiles.
	x.Insert(5, geom.Rect{ULo: 500, UHi: 501, VLo: 500, VHi: 501})
	if x.Len() != 1 {
		t.Fatalf("Len after refile = %d, want 1", x.Len())
	}
	// A probe filed under an unused id queries the refiled item.
	x.Insert(9, geom.Rect{ULo: 499, UHi: 499, VLo: 499, VHi: 499})
	j, _, ok := x.NearestBox(9)
	x.Delete(9)
	if !ok || j != 5 {
		t.Fatalf("NearestBox after refile = (%d, %v), want 5", j, ok)
	}
	if x.Scans() <= 0 {
		t.Error("Scans not counted")
	}
}

// TestTombstoneChurn hammers the lazy-deletion machinery: mass deletes
// (forcing tombstone purges and live-drop re-cell rebuilds) interleaved with
// inserts and re-inserts of previously tombstoned ids, checking NearestBox
// against brute force throughout.
func TestTombstoneChurn(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const n = 600
	boxes := make([]geom.Rect, n)
	live := make([]bool, n)
	x := New(25)
	for i := range boxes {
		boxes[i] = randRect(r, 1000, 10)
		live[i] = true
		x.Insert(i, boxes[i])
	}
	check := func(tag string) {
		t.Helper()
		nLive := 0
		for _, a := range live {
			if a {
				nLive++
			}
		}
		if x.Len() != nLive {
			t.Fatalf("%s: Len = %d, want %d", tag, x.Len(), nLive)
		}
		for i := range boxes {
			if !live[i] {
				continue
			}
			skip := func(j int) bool { return j == i }
			wantJ, wantD := bruteNearest(boxes, live, boxes[i], skip)
			gotJ, gotD, ok := x.NearestBox(i)
			if wantJ < 0 {
				if ok {
					t.Fatalf("%s: item %d: got %d, want none", tag, i, gotJ)
				}
				continue
			}
			if !ok || gotJ != wantJ || gotD != wantD {
				t.Fatalf("%s: item %d: got (%d, %v), want (%d, %v)", tag, i, gotJ, gotD, wantJ, wantD)
			}
		}
	}
	check("initial")
	// Delete 80% — drives the live count through several halvings, so both
	// the purge sweep and the re-cell rebuild must fire.
	for i := 0; i < n; i++ {
		if r.Float64() < 0.8 && live[i] {
			x.Delete(i)
			live[i] = false
		}
	}
	check("after mass delete")
	// Resurrect some tombstoned ids under new boxes.
	for i := 0; i < n/4; i++ {
		id := r.Intn(n)
		if !live[id] {
			boxes[id] = randRect(r, 1000, 10)
			x.Insert(id, boxes[id])
			live[id] = true
		}
	}
	check("after resurrection")
	// Drain to a handful.
	for i := 0; i < n; i++ {
		if live[i] && x.Len() > 3 {
			x.Delete(i)
			live[i] = false
		}
	}
	check("after drain")
}

// TestInsertAllMatchesIncremental: items filed one by one into a fitted
// window (the single-query settle's incremental path) must be
// observationally identical to the counting pass of a first filing, at a
// fine cell and at a coarse one whose buckets grow several times.
func TestInsertAllMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const n = 400
	boxes := make([]geom.Rect, n)
	for i := range boxes {
		boxes[i] = randRect(r, 2000, 15)
	}
	for _, cell := range []float64{30, 200} {
		bulk := New(cell)
		bulk.InsertAll(boxes)
		inc := New(cell)
		inc.InsertAll(boxes[:n/4])
		inc.NearestBox(0) // the first filing fits inc's window to these boxes
		// The rest go in one by one: the next query files them into the
		// fitted window, growing buckets the first filing left full.
		for i := n / 4; i < n; i++ {
			inc.Insert(i, boxes[i])
		}
		if bulk.Len() != inc.Len() {
			t.Fatalf("cell %v: Len %d != %d", cell, bulk.Len(), inc.Len())
		}
		for i := range boxes {
			bj, bd, bok := bulk.NearestBox(i)
			ij, id, iok := inc.NearestBox(i)
			if bj != ij || bd != id || bok != iok {
				t.Fatalf("cell %v, item %d: bulk (%d,%v,%v) != incremental (%d,%v,%v)", cell, i, bj, bd, bok, ij, id, iok)
			}
		}
		if rb := inc.Rebuilds(); rb.Total() != 0 {
			t.Fatalf("cell %v: the later items were filed by a rebuild (%+v), not one by one", cell, rb)
		}
	}
}

// TestDensityCell: sane on degenerate inputs, and finer than AutoCell on a
// clustered placement (the property the power-law instances rely on).
func TestDensityCell(t *testing.T) {
	if c := DensityCell(nil); c != 1 {
		t.Errorf("DensityCell(nil) = %v, want 1", c)
	}
	pt := geom.RectFromPoint(geom.Point{X: 1, Y: 2})
	if c := DensityCell([]geom.Rect{pt, pt}); !(c > 0) {
		t.Errorf("DensityCell(coincident points) = %v, want > 0", c)
	}
	// 2000 points in tight clusters spread over a wide die.
	r := rand.New(rand.NewSource(5))
	var clustered []geom.Rect
	for c := 0; c < 10; c++ {
		cx, cy := r.Float64()*1e6, r.Float64()*1e6
		for k := 0; k < 200; k++ {
			p := geom.Point{X: cx + r.NormFloat64()*500, Y: cy + r.NormFloat64()*500}
			clustered = append(clustered, geom.RectFromPoint(p))
		}
	}
	dc, ac := DensityCell(clustered), AutoCell(clustered)
	if !(dc > 0) || dc >= ac {
		t.Errorf("DensityCell = %v, want in (0, AutoCell=%v)", dc, ac)
	}
	// 40 points along a 15-unit line whose other coordinate differs only by
	// ulps, as the fuzz target places them: their spacing and their area
	// both allow a cell near 1e-8, some 2e9 cells along the line. The
	// window must stay at most maxCellsPerItem cells per point along it.
	var line []geom.Rect
	for k := 0; k < 40; k++ {
		u, v := float64(k%16), nudge(1, k%7-3)
		line = append(line, geom.Rect{ULo: u, UHi: u, VLo: v, VHi: v})
	}
	bb := boundsOf(line)
	want := max(bb.Width(), bb.Height()) / (maxCellsPerItem * float64(len(line)))
	if c := DensityCell(line); !(c >= want) {
		t.Errorf("DensityCell(collinear) = %v, want >= %v", c, want)
	}
}

// TestRebuildStatsCountLiveDrop pins the classification of both rebuild
// triggers of the single-query cadence, and exact answers after them: the
// population schedule (half the live set deleted) and the edge clamp (more
// than clampSlack items filed beyond the window the first query fitted to
// item 0). Rebuilds run when a query settles the index, so the test queries
// after the first insert and after the rest, before it reads the counts.
func TestRebuildStatsCountLiveDrop(t *testing.T) {
	const n = 100
	for _, tc := range []struct {
		name    string
		box     func(r *rand.Rand, i int) geom.Rect
		deletes int
		fired   func(RebuildStats) int
	}{
		{"live-drop", func(r *rand.Rand, _ int) geom.Rect { return randRect(r, 1000, 10) }, n / 2,
			func(rb RebuildStats) int { return rb.LiveDrop }},
		// Item 0 at the origin sets a window a few cells wide; every later
		// item lands far beyond it, and no delete runs the population
		// schedule.
		{"edge-clamp", func(r *rand.Rand, i int) geom.Rect {
			if i == 0 {
				return geom.Rect{}
			}
			b := randRect(r, 1000, 10)
			return geom.Rect{ULo: b.ULo + 5000, UHi: b.UHi + 5000, VLo: b.VLo + 5000, VHi: b.VHi + 5000}
		}, 0, func(rb RebuildStats) int { return rb.EdgeClamp }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(5))
			x := New(40)
			boxes := make([]geom.Rect, n)
			live := make([]bool, n)
			for i := range boxes {
				boxes[i] = tc.box(r, i)
				live[i] = true
				x.Insert(i, boxes[i])
				if i == 0 || i == n-1 {
					x.NearestBox(i)
				}
			}
			for i := 0; i < tc.deletes; i++ {
				x.Delete(i)
				live[i] = false
			}
			for i := range boxes {
				if !live[i] {
					continue
				}
				wantJ, wantD := bruteNearest(boxes, live, boxes[i], func(j int) bool { return j == i })
				if gotJ, gotD, ok := x.NearestBox(i); !ok || gotJ != wantJ || gotD != wantD {
					t.Fatalf("item %d: got (%d, %v), want (%d, %v)", i, gotJ, gotD, wantJ, wantD)
				}
			}
			rb := x.Rebuilds()
			if tc.fired(rb) < 1 {
				t.Fatalf("%s rebuilds = %d (stats %+v), want >= 1", tc.name, tc.fired(rb), rb)
			}
			if rb.Total() != rb.LiveDrop+rb.EdgeClamp {
				t.Fatalf("Total inconsistent: %+v", rb)
			}
		})
	}
}
