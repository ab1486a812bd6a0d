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

// latticeScript returns a fuzz input: head (the cell and base bytes), n
// lattice inserts (appendLattice), then tail.
func latticeScript(head []byte, n int, op byte, tail ...byte) []byte {
	return append(appendLattice(append([]byte(nil), head...), n, op), tail...)
}

// appendLattice appends n inserts of point boxes on a lattice of cell
// multiples to a fuzz input, exact when op is 0 and inexact when it is 8.
func appendLattice(b []byte, n int, op byte) []byte {
	for i := 0; i < n; i++ {
		b = append(b, op, byte(i%16), 3, byte(i/16*5), 3, 0)
	}
	return b
}

// appendQueries appends n single-query steps (NearestBox) to a fuzz input,
// over varied items.
func appendQueries(b []byte, n int) []byte {
	for k := 0; k < n; k++ {
		b = append(b, 5, byte(3*k))
	}
	return b
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
//     would answer wrong. An item inserted after a filing is late until
//     the next filing;
//   - deletes, including of the item inserted last, which may still be
//     late;
//   - moves: re-inserts of a live or dead id under a fresh box, which leave
//     a filed item's records stale and list it late, or move a late item
//     in place (order never re-inserts an id, but the index allows it, and
//     the ECO dirty set moves sinks);
//   - batch queries (NearestAll), which re-pack the live set whenever the
//     snapshot lags it and answer from the fresh snapshot, each optionally
//     followed by a NearestFree that reads the same snapshot;
//   - single queries: NearestBox, through the pairer's index, and
//     NearestFree. They answer from the snapshot, skipping its stale
//     records, plus the late list, until their lag work exceeds repackWork
//     per live item, which makes the next one re-pack first, as a batch
//     query does.
//
// Every answer must equal a scan of the live items under the same key,
// smallest id on ties, and every query must leave the form its rule
// prescribes: a batch query a fresh snapshot, a single query either the
// lag it found and more lag work, or a fresh snapshot and one more
// LiveDrop.
func FuzzNearestMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 9, 9, 9, 9, 5, 0, 7, 6, 255})
	f.Add([]byte{3, 2, 1, 64, 65, 66, 67, 0, 1, 2, 3, 4, 4, 5, 1, 6, 0, 7})
	f.Add([]byte{5, 1, 2, 200, 3, 3, 3, 1, 17, 33, 49, 2, 40, 40, 40, 4, 5, 2, 7, 6, 85})
	// Over 40 lattice points a batch query filed, exact (op 0, moves 132)
	// and inexact (op 8, moves 140): a late insert read by a single query's
	// late scan; a filed item moved, which lists it late over its stale
	// records; that late item moved again in place; the last insert deleted
	// while late, then re-inserted; a filed item deleted, then re-inserted;
	// late inserts on the lattice, and single queries until their lag work
	// trips a re-pack; a late insert, a filed item deleted, a late item
	// beyond the window and more late inserts, and queries until their lag
	// work trips a re-pack that re-fits the window over it.
	for _, op := range []byte{0, 8} {
		tail := []byte{
			op, 5, 3, 9, 3, 0, 5, 7, // a late insert, then a single query
			op + 132, 3, 6, 3, 6, 3, 0, 5, 3, // move filed item 3; query
			op + 132, 3, 7, 3, 7, 3, 0, 6, 10, 0, // move late item 3; NearestFree
			op, 6, 3, 6, 3, 0, 4, 5, 20, // insert item 41, delete it while late; query
			op + 132, 41, 8, 3, 8, 3, 0, 5, 21, // re-insert item 41; query
			3, 10, op + 132, 10, 9, 3, 9, 3, 0, // delete filed item 10, re-insert it
		}
		tail = appendLattice(tail, 16, op)
		tail = appendQueries(tail, 32)               // a re-pack
		tail = append(tail, op, 7, 3, 6, 3, 0, 3, 9) // a late insert; a filed item deleted
		tail = append(tail, op, 15, 6, 15, 6, 0)     // an insert beyond the window
		tail = appendLattice(tail, 16, op)
		tail = appendQueries(tail, 40) // a re-pack
		f.Add(latticeScript([]byte{0, 0}, 40, op, append([]byte{7}, append(tail, 7, 15, 0, 6, 9, 9)...)...))
	}
	// The same over a coarse cell and a far base, with overflow items
	// (spread 128): one inserted late, and the first single query, which
	// files it with the rest; it moves, which leaves a stale overflow record
	// and a late overflow item, and a batch query files it; late inserts
	// and the overflow item deleted, and queries until their scans of the
	// late items and skips of its stale record trip a re-pack; another
	// overflow item late, a filed item moved and late inserts, and queries
	// until a re-pack files them; then deletes and a batch query.
	tail := []byte{
		0, 2, 3, 2, 3, 128, 5, 0, // overflow item 24, late; the first filing
		140, 24, 4, 3, 4, 3, 128, 6, 1, 85, // move it; NearestFree
		7, // a batch query files it
	}
	tail = appendLattice(tail, 12, 8)
	tail = append(tail, 3, 24)                 // delete overflow item 24
	tail = appendQueries(tail, 30)             // a re-pack
	tail = append(tail, 0, 3, 3, 3, 3, 128)    // overflow item 37, late
	tail = append(tail, 132, 5, 9, 3, 9, 3, 0) // move filed item 5
	tail = appendLattice(tail, 12, 8)
	tail = appendQueries(tail, 30) // a re-pack
	f.Add(latticeScript([]byte{4, 2}, 24, 8, append(tail, 3, 0, 3, 0, 3, 0, 5, 4, 15, 0, 7)...))
	// Over 24 lattice points a batch query filed, deletes past half the
	// live set, and single queries until their skips of its stale records
	// trip a re-pack.
	tail = []byte{7}
	for k := byte(0); k < 16; k++ {
		tail = append(tail, 3, k) // deletes past half the live set
	}
	tail = appendQueries(tail, 40) // a re-pack
	f.Add(latticeScript([]byte{0, 0}, 24, 0, append(tail, 7)...))
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
		// query runs a query and checks the form it left. A query over a
		// snapshot that lags the live set files anew when the index has no
		// window, when it is a batch query, or when the single queries'
		// lag work since the last filing exceeds repackWork per live item;
		// a filing counts a LiveDrop unless it is the first, and leaves no
		// lag and no lag work. A single query that files nothing adds the
		// late items it scanned and the stale records it skipped to the
		// lag work; a batch query adds nothing.
		query := func(op string, batch bool, run func()) {
			t.Helper()
			x := p.idx
			w, lag, n, work, late, drops := x.w, x.dirty(), x.n, x.lagWork, int64(len(x.late)), x.rebuilds.LiveDrop
			stale := lag > int(late)
			run()
			filed := lag > 0 && (w == 0 || batch || work > repackWork*int64(n))
			wantDrops := drops
			if filed && w > 0 {
				wantDrops++
			}
			switch got := x.dirty(); {
			case x.rebuilds.LiveDrop != wantDrops,
				filed && (got != 0 || x.lagWork != 0),
				!filed && got != lag,
				!filed && batch && x.lagWork != work,
				!filed && !batch && (x.lagWork < work+late || !stale && x.lagWork != work+late):
				t.Fatalf("%s at lag %d of %d live, lag work %d: lag %d, lag work %d, LiveDrop %d; want a filing %v, LiveDrop %d",
					op, lag, n, work, got, x.lagWork, x.rebuilds.LiveDrop, filed, wantDrops)
			}
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
			var got order.Pair
			var ok bool
			query("NearestFree", false, func() { got, ok = p.NearestFree(i, used) })
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
			case 3:
				if id := pick(); id >= 0 {
					p.Delete(id)
					live[id] = false
				}
			case 4:
				if op >= 128 && len(boxes) > 0 {
					id := in.next() % len(boxes)
					boxes[id], live[id], exact[id] = newBox(), true, op/8%2 == 0
					p.Insert(id)
					continue
				}
				if id := len(boxes) - 1; id >= 0 && live[id] {
					p.Delete(id)
					live[id] = false
				}
			case 5:
				i := pick()
				if i < 0 {
					continue
				}
				var j int
				var d float64
				var ok bool
				query("NearestBox", false, func() { j, d, ok = p.Index().NearestBox(i) })
				want, wantD := scan(i, nil, func(j int) float64 { return geom.DistRR(boxes[i], boxes[j]) })
				check("NearestBox", i, order.Pair{Key: d, I: i, J: j}, ok, want, wantD)
			case 6:
				if i := pick(); i >= 0 {
					nearestFree(i)
				}
			case 7:
				ids := liveIDs()
				if len(ids) < 2 {
					continue
				}
				var all []order.Pair
				query("NearestAll", true, func() { all = p.NearestAll(ids) })
				for t2, got := range all {
					i := ids[t2]
					want, wantKey := scan(i, nil, func(j int) float64 { return key(i, j, dist(i, j)) })
					check("NearestAll", i, got, got.J >= 0, want, wantKey)
				}
				if op/8%2 == 1 {
					nearestFree(pick())
				}
			}
		}
	})
}
