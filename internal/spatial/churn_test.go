package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// TestEcoChurnMatchesFreshIndex pins the index under the exact churn shape
// the incremental rerouting path produces: a long run of ECO rounds, each a
// clustered batch of moves (delete + re-insert of the SAME id at a shifted
// placement), removals (stale filings) and additions (fresh ids extending
// the id space, late until a filing), with the live count moving in both
// directions so single queries re-pack (LiveDrop) mid-sequence.
// After every round the churned index must answer NearestBox identically
// to an index freshly built from the surviving boxes — cell geometry, late
// items, stale records and filing history are never allowed to leak into
// results.
func TestEcoChurnMatchesFreshIndex(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	const n = 500
	boxes := make([]geom.Rect, 0, 2*n)
	live := make([]bool, 0, 2*n)
	x := New(25)
	for i := 0; i < n; i++ {
		boxes = append(boxes, randRect(r, 1000, 4))
		live = append(live, true)
		x.Insert(i, boxes[i])
	}

	// repackedWith is the probe box of the last query of x that filed anew.
	var repackedWith geom.Rect
	check := func(tag string, probes int) {
		t.Helper()
		// A fresh index over the identical surviving boxes is the oracle:
		// same ids, same boxes, no churn history. Its cell size differs from
		// the churned index's (AutoCell of the survivors vs. the original
		// New(25) grid after rebuilds) — which is the point: results must be
		// a pure function of the live boxes.
		survivors := make([]geom.Rect, 0, len(boxes))
		ids := make([]int, 0, len(boxes))
		for id, a := range live {
			if a {
				survivors = append(survivors, boxes[id])
				ids = append(ids, id)
			}
		}
		fresh := New(AutoCell(survivors))
		for j, id := range ids {
			fresh.Insert(id, survivors[j])
		}
		if x.Len() != fresh.Len() {
			t.Fatalf("%s: Len = %d, fresh %d", tag, x.Len(), fresh.Len())
		}
		for probe := 0; probe < probes; probe++ {
			// Each probe box is filed under an id no item uses, queried,
			// then deleted again.
			q := randRect(r, 1000, 4)
			nearest := func(ix *Index) (int, float64, bool) {
				pid := len(boxes)
				ix.Insert(pid, q)
				defer ix.Delete(pid)
				drops := ix.Rebuilds().LiveDrop
				defer func() {
					if ix == x && ix.Rebuilds().LiveDrop != drops {
						repackedWith = q
					}
				}()
				return ix.NearestBox(pid)
			}
			gj, gd, gok := nearest(x)
			wj, wd, wok := nearest(fresh)
			if gok != wok || gj != wj || gd != wd {
				t.Fatalf("%s: NearestBox(%v) = (%d, %v, %v), fresh (%d, %v, %v)",
					tag, q, gj, gd, gok, wj, wd, wok)
			}
		}
	}
	check("initial", 40)

	for round := 0; round < 6; round++ {
		// A clustered ECO: edits target the neighborhood of one focal box,
		// like instio.Perturb's scripts.
		focal := randRect(r, 1000, 4)
		neighbors := nearestLive(boxes, live, focal, 60)
		for i, id := range neighbors {
			switch {
			case i%5 == 4: // removal
				x.Delete(id)
				live[id] = false
			case i%5 < 3: // move: re-file the same id at a shifted placement
				nb := boxes[id]
				du, dv := (r.Float64()*2-1)*40, (r.Float64()*2-1)*40
				nb.ULo += du
				nb.UHi += du
				nb.VLo += dv
				nb.VHi += dv
				boxes[id] = nb
				x.Delete(id)
				x.Insert(id, nb)
			}
		}
		// Additions: fresh ids past the current space, near the focal box.
		for a := 0; a < 10; a++ {
			id := len(boxes)
			nb := focal
			du, dv := (r.Float64()*2-1)*60, (r.Float64()*2-1)*60
			nb.ULo += du
			nb.UHi += du
			nb.VLo += dv
			nb.VHi += dv
			boxes = append(boxes, nb)
			live = append(live, true)
			x.Insert(id, nb)
		}
		// Every other round, also resurrect a few tombstoned ids — the
		// add-after-remove ECO — at new placements.
		if round%2 == 1 {
			for id := range live {
				if !live[id] && r.Float64() < 0.3 {
					boxes[id] = randRect(r, 1000, 4)
					x.Insert(id, boxes[id])
					live[id] = true
				}
			}
		}
		check("round", 40)
	}

	// Now drain far enough that the live count halves: the stale records
	// the probes skip trip a filing, a re-pack that re-measures the cell
	// for the survivors. The probes skip a few stale records each, so the
	// check runs as many as it takes their lag work to pass repackWork per
	// live item.
	drops := x.Rebuilds().LiveDrop
	dropped, target := 0, 4*x.Len()/5
	for id := 0; id < len(live) && dropped < target; id++ {
		if live[id] {
			x.Delete(id)
			live[id] = false
			dropped++
		}
	}
	survivors := []geom.Rect{}
	for id, a := range live {
		if a {
			survivors = append(survivors, boxes[id])
		}
	}
	check("after drain", 40*repackWork)
	// The re-pack measured the cell for the survivors and the probe box
	// the tripping query was filed for, whose id follows theirs.
	if x.Rebuilds().LiveDrop == drops {
		t.Fatalf("drain never made a single query re-pack the survivors; the test lost its point")
	}
	if want := DensityCell(append(survivors, repackedWith)); x.cell != want {
		t.Errorf("cell %v after the drain's re-pack, want %v, measured for the survivors", x.cell, want)
	}

	// And from below: mass re-insertion over the drained grid, late until
	// a query files them.
	for id := range live {
		if !live[id] && r.Float64() < 0.7 {
			boxes[id] = randRect(r, 1000, 4)
			x.Insert(id, boxes[id])
			live[id] = true
		}
	}
	check("after refill", 40)
	t.Logf("rebuilds: %+v", x.Rebuilds())
}

// nearestLive returns up to k live ids by ascending DistRR to q, exact ties
// by ascending id: a brute-force pick of a churn round's edit neighborhood.
func nearestLive(boxes []geom.Rect, live []bool, q geom.Rect, k int) []int {
	var ids []int
	for id, ok := range live {
		if ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := geom.DistRR(q, boxes[ids[a]]), geom.DistRR(q, boxes[ids[b]])
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	return ids[:min(k, len(ids))]
}
