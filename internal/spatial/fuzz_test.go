package spatial

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/order"
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// nudge moves v by ulps representable steps, up for positive ulps.
func nudge(v float64, ulps int) float64 {
	for ; ulps > 0; ulps-- {
		v = math.Nextafter(v, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		v = math.Nextafter(v, math.Inf(-1))
	}
	return v
}

// FuzzNearestMatchesScan checks the clipped ring walk against brute force.
// The fuzz input picks a cell edge and a coordinate base, then runs an
// interleaved script on a GridPairer:
//
//   - inserts of boxes whose edges sit on, or a few ulps off, cell
//     boundaries (integer multiples of the cell, which also makes exact
//     distance ties common), some of them wide enough for the overflow
//     list. Each item is exact or not: an inexact item's pair distance
//     exceeds its box distance, as a deferred node's octagon distance
//     exceeds its bounds', so a walk that keyed it by the box distance
//     would answer wrong;
//   - deletes, including of the item inserted last, which may still be
//     queued;
//   - moves: re-inserts of a live or dead id under a fresh box, which
//     unfile it from whichever form holds it (order never re-inserts an
//     id, but the index allows it, and the ECO dirty set moves sinks);
//   - batch queries (NearestAll), which file the live set into a snapshot
//     and answer from it, each optionally followed by a NearestFree that
//     reads the same snapshot;
//   - single queries: Nearest together with (through the pairer's index)
//     NearestBox, and NearestFree. After a mutation they answer from
//     buckets, built in the snapshot's window and cell when a batch query
//     filed one.
//
// Every answer must equal a scan of the live items under the same key,
// smallest id on ties, and a query that directly follows a mutation must
// read the form the cadence prescribes: the snapshot for a batch query,
// buckets for a single one.
func FuzzNearestMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 9, 9, 9, 9, 5, 0, 7, 6, 255})
	f.Add([]byte{3, 2, 1, 64, 65, 66, 67, 0, 1, 2, 3, 4, 4, 5, 1, 6, 0, 7})
	f.Add([]byte{5, 1, 2, 200, 3, 3, 3, 1, 17, 33, 49, 2, 40, 40, 40, 4, 5, 2, 7, 6, 85})
	f.Add([]byte{1, 0, 8, 3, 4, 1, 16, 9, 5, 2, 0, 24, 6, 6, 2, 3, 2, 1, 0, 7, 15, 2, 9, 3, 5, 1, 15, 3, 85, 5, 0, 6, 1, 170})
	f.Add([]byte{2, 0, 0, 1, 2, 3, 1, 4, 5, 6, 7, 128, 2, 8, 9, 10, 11, 3, 1, 7, 140, 0, 2, 2, 9, 1, 5, 1, 3, 0, 132, 1, 5, 5, 1, 1, 6, 0, 3, 7, 6, 0, 0, 5, 0})
	// Moves after a batch query: a tombstoned item resurrected, an
	// overflow item and a live one moved, then single and batch queries.
	f.Add([]byte{0, 0,
		0, 1, 3, 2, 3, 0, 0, 5, 3, 6, 3, 0, 0, 9, 3, 2, 3, 128, 0, 3, 3, 7, 3, 1,
		7, 3, 0, 132, 0, 4, 3, 4, 3, 0, 132, 2, 8, 3, 8, 3, 0, 140, 1, 2, 3, 9, 3, 2,
		5, 0, 7, 15, 1, 5, 3, 2, 132, 3, 5, 3, 5, 3, 0, 5, 0, 6, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		cell := []float64{1, 0.1, 3, 0.7, 10, 1e-3, 1e6, 0.3}[in.next()%8]
		base := []float64{0, 1e3, 1e7, -5e5}[in.next()%4] * cell
		coord := func() float64 {
			k := float64(in.next()%16) - 4
			return nudge(base+k*cell, in.next()%7-3)
		}
		newBox := func() geom.Rect {
			u, v := coord(), coord()
			spread := in.next()
			wu, wv := float64(spread%4)*cell, float64(spread/4%4)*cell
			if spread&0x80 != 0 {
				wu, wv = 10*cell, 10*cell // spans > maxSpanCells: overflow
			}
			return geom.Rect{ULo: u, UHi: nudge(u+wu, spread/16%3), VLo: v, VHi: nudge(v+wv, spread/48%3)}
		}
		var boxes []geom.Rect
		var live, exact []bool
		dist := func(i, j int) float64 {
			d := geom.DistRR(boxes[i], boxes[j])
			if exact[i] && exact[j] {
				return d
			}
			return d + float64(1+(i+j)%3)*cell/8
		}
		// A key at or above the distance, often equal to it.
		key := func(i, j int, d float64) float64 { return d + float64((7*i+13*j)%3)*cell/4 }
		p := NewGridPairer(cell, 0, func(id int) (geom.Rect, bool) { return boxes[id], exact[id] }, dist, key)

		scan := func(i int, used []bool, score func(j int) float64) (int, float64) {
			best, bestKey := -1, math.Inf(1)
			for j, ok := range live {
				if !ok || j == i || used != nil && used[j] {
					continue
				}
				if k := score(j); k < bestKey || (k == bestKey && j < best) {
					best, bestKey = j, k
				}
			}
			return best, bestKey
		}
		check := func(op string, i int, got order.Pair, ok bool, want int, wantKey float64) {
			t.Helper()
			if ok != (want >= 0) || got.I != i || ok && (got.J != want || got.Key != wantKey) {
				t.Fatalf("%s(%d) = %+v, %v; scan (%d, %v)", op, i, got, ok, want, wantKey)
			}
		}
		// mutated records a mutation since the last query; checkForm
		// checks, and clears it, after a query that packed says reads the
		// snapshot or not.
		mutated := false
		checkForm := func(op string, packed bool) {
			t.Helper()
			if mutated && p.idx.packed != packed && p.idx.w > 0 {
				t.Fatalf("%s after a mutation read packed=%v, want %v", op, p.idx.packed, packed)
			}
			mutated = false
		}
		liveIDs := func() []int {
			var ids []int
			for id, ok := range live {
				if ok {
					ids = append(ids, id)
				}
			}
			return ids
		}
		pick := func() int {
			ids := liveIDs()
			if len(ids) == 0 {
				return -1
			}
			return ids[in.next()%len(ids)]
		}
		nearestFree := func(i int) {
			t.Helper()
			used := make([]bool, len(boxes))
			mask := in.next()
			for j := range used {
				used[j] = mask>>(j%8)&1 != 0 && j != i
			}
			got, ok := p.NearestFree(i, used)
			want, wantD := scan(i, used, func(j int) float64 { return dist(i, j) })
			check("NearestFree", i, got, ok, want, wantD)
		}

		for step := 0; step < 256 && len(in) > 0; step++ {
			switch op := in.next(); op % 8 {
			case 0, 1, 2:
				if len(boxes) >= 200 {
					continue
				}
				boxes = append(boxes, newBox())
				live = append(live, true)
				exact = append(exact, op/8%2 == 0)
				p.Insert(len(boxes) - 1)
				mutated = true
			case 3:
				if id := pick(); id >= 0 {
					p.Delete(id)
					live[id] = false
					mutated = true
				}
			case 4:
				if op >= 128 && len(boxes) > 0 {
					id := in.next() % len(boxes)
					boxes[id], live[id], exact[id] = newBox(), true, op/8%2 == 0
					p.Insert(id)
					mutated = true
					continue
				}
				if id := len(boxes) - 1; id >= 0 && live[id] {
					p.Delete(id)
					live[id] = false
					mutated = true
				}
			case 5:
				i := pick()
				if i < 0 {
					continue
				}
				got, ok := p.Nearest(i)
				checkForm("Nearest", false)
				want, wantKey := scan(i, nil, func(j int) float64 { return key(i, j, dist(i, j)) })
				check("Nearest", i, got, ok, want, wantKey)
				j, d, ok := p.Index().NearestBox(i)
				want, wantD := scan(i, nil, func(j int) float64 { return geom.DistRR(boxes[i], boxes[j]) })
				check("NearestBox", i, order.Pair{Key: d, I: i, J: j}, ok, want, wantD)
			case 6:
				if i := pick(); i >= 0 {
					nearestFree(i)
					checkForm("NearestFree", false)
				}
			case 7:
				ids := liveIDs()
				if len(ids) < 2 {
					continue
				}
				for t2, got := range p.NearestAll(ids) {
					i := ids[t2]
					want, wantKey := scan(i, nil, func(j int) float64 { return key(i, j, dist(i, j)) })
					check("NearestAll", i, got, got.J >= 0, want, wantKey)
				}
				checkForm("NearestAll", true)
				if op/8%2 == 1 {
					nearestFree(pick())
				}
			}
		}
	})
}
