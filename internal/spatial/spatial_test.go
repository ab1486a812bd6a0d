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

// TestTombstoneChurn hammers the lazy deletion: mass deletes (stale
// filings a walk skips, then single-query filings) interleaved with
// inserts and re-inserts of previously deleted ids, checking NearestBox
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
	// Delete 80%: the stale records the queries skip trip a re-pack.
	for i := 0; i < n; i++ {
		if r.Float64() < 0.8 && live[i] {
			x.Delete(i)
			live[i] = false
		}
	}
	check("after mass delete")
	if x.Rebuilds().LiveDrop == 0 {
		t.Fatal("the mass delete never made a query re-pack")
	}
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

// TestInsertAllMatchesIncremental: items inserted after a first filing are
// answered from the late list until the single queries' lag work trips a
// filing, then from the re-packed snapshot, under a cell re-measured for
// the live set and a window that covers it: once with the late items
// inside the first filing's window, once with one far beyond it. Every
// answer must be observationally identical to the counting pass of a first
// filing over the same items, at a fine first cell and at a coarse one.
func TestInsertAllMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const n = 400
	boxes := make([]geom.Rect, n)
	for i := range boxes {
		switch {
		case i < n/4:
			boxes[i] = randRect(r, 2000, 15)
		case i < n/4+10: // well inside the first filing's window
			b := randRect(r, 1000, 15)
			boxes[i] = geom.Rect{ULo: b.ULo + 500, UHi: b.UHi + 500, VLo: b.VLo + 500, VHi: b.VHi + 500}
		case i == n-1: // far beyond it
			boxes[i] = geom.Rect{ULo: 9000, UHi: 9010, VLo: 9000, VHi: 9010}
		default:
			boxes[i] = randRect(r, 2000, 15)
		}
	}
	for _, cell := range []float64{30, 200} {
		inc := New(cell)
		inc.InsertAll(boxes[:n/4])
		inc.NearestBox(0) // the first filing fits inc's window to these boxes
		for _, filed := range []int{n/4 + 10, n} {
			for i := inc.Len(); i < filed; i++ {
				inc.Insert(i, boxes[i])
			}
			bulk := New(cell)
			bulk.InsertAll(boxes[:filed])
			if bulk.Len() != inc.Len() {
				t.Fatalf("cell %v: Len %d != %d", cell, bulk.Len(), inc.Len())
			}
			drops := inc.Rebuilds().LiveDrop
			for i := range boxes[:filed] {
				if i == 0 && inc.lagWork != 0 {
					t.Fatalf("cell %v, %d items: lag work %d before the first query", cell, filed, inc.lagWork)
				}
				bj, bd, bok := bulk.NearestBox(i)
				ij, id, iok := inc.NearestBox(i)
				if bj != ij || bd != id || bok != iok {
					t.Fatalf("cell %v, item %d of %d: bulk (%d,%v,%v) != incremental (%d,%v,%v)",
						cell, i, filed, bj, bd, bok, ij, id, iok)
				}
			}
			if got := inc.Rebuilds().LiveDrop - drops; got != 1 || inc.dirty() != 0 {
				t.Fatalf("cell %v, %d items: %d filings, lag %d; want one filing, no lag", cell, filed, got, inc.dirty())
			}
			if want := DensityCell(boxes[:filed]); inc.cell != want {
				t.Fatalf("cell %v, %d items: re-packed under cell %v, want %v, measured for them", cell, filed, inc.cell, want)
			}
			if i := outsideWindow(inc, boxes[:filed], nil); i >= 0 {
				t.Fatalf("cell %v, %d items: item %d (%v) lies outside the re-packed window", cell, filed, i, boxes[i])
			}
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

// TestRebuildStatsCountLiveDrop pins the re-pack a single query makes once
// the single queries' lag work trips it, and exact answers after it: over
// the stale records of half the live set, deleted after the first filing
// packed it, and over late items far beyond the window the first filing
// fitted to item 0 (every item after it). The lag work of the queries that
// follow, the stale records they skip or the late items they scan, trips
// the re-pack, which re-measures the cell for the live set and re-fits the
// window over it. Each live item queries repackWork times over: a query
// skips only the stale records near it, a few per query.
func TestRebuildStatsCountLiveDrop(t *testing.T) {
	const n = 100
	for _, tc := range []struct {
		name           string
		box            func(r *rand.Rand, i int) geom.Rect
		filed, deletes int
	}{
		{"live-drop", func(r *rand.Rand, _ int) geom.Rect { return randRect(r, 1000, 10) }, n, n / 2},
		{"beyond-window", func(r *rand.Rand, i int) geom.Rect {
			if i == 0 {
				return geom.Rect{}
			}
			b := randRect(r, 1000, 10)
			return geom.Rect{ULo: b.ULo + 5000, UHi: b.UHi + 5000, VLo: b.VLo + 5000, VHi: b.VHi + 5000}
		}, 1, 0},
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
				if i == tc.filed-1 {
					x.NearestBox(i) // the first filing
				}
			}
			for i := 0; i < tc.deletes; i++ {
				x.Delete(i)
				live[i] = false
			}
			for pass := 0; pass < repackWork; pass++ {
				for i := range boxes {
					if !live[i] {
						continue
					}
					wantJ, wantD := bruteNearest(boxes, live, boxes[i], func(j int) bool { return j == i })
					if gotJ, gotD, ok := x.NearestBox(i); !ok || gotJ != wantJ || gotD != wantD {
						t.Fatalf("pass %d, item %d: got (%d, %v), want (%d, %v)", pass, i, gotJ, gotD, wantJ, wantD)
					}
				}
			}
			var liveBoxes []geom.Rect
			for i, b := range boxes {
				if live[i] {
					liveBoxes = append(liveBoxes, b)
				}
			}
			if rb, want := x.Rebuilds(), DensityCell(liveBoxes); rb.LiveDrop < 1 || rb.Total() != rb.LiveDrop || x.cell != want {
				t.Fatalf("rebuilds %+v (total %d), cell %v; want a re-pack under %v, measured for the %d live items",
					rb, rb.Total(), x.cell, want, len(liveBoxes))
			}
			if i := outsideWindow(x, boxes, live); i >= 0 {
				t.Fatalf("item %d (%v) lies outside the re-packed window", i, boxes[i])
			}
		})
	}
}

// outsideWindow returns the first item of boxes, live where live is nil or
// set, whose box lies outside x's window, or −1 when none does.
func outsideWindow(x *Index, boxes []geom.Rect, live []bool) int {
	for i, b := range boxes {
		if (live == nil || live[i]) && (x.cellIdx(b.ULo) < x.ou || x.cellIdx(b.UHi) >= x.ou+x.w ||
			x.cellIdx(b.VLo) < x.ov || x.cellIdx(b.VHi) >= x.ov+x.h) {
			return i
		}
	}
	return -1
}
