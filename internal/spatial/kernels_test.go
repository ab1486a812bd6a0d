package spatial

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// densityCellAllPairs is DensityCell with its nearest-neighbor pass written
// as the plain comparison of every pair of samples: the reference
// sampleSpacings' sweep must match bit for bit.
func densityCellAllPairs(boxes []geom.Rect) float64 {
	n := len(boxes)
	if n == 0 {
		return 1
	}
	bb := boundsOf(boxes)
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
	nn := make([]float64, 0, s)
	edges := make([]float64, 0, s)
	for a := 0; a < s; a++ {
		i := a * stride
		best := math.Inf(1)
		for b := 0; b < s; b++ {
			if b == a {
				continue
			}
			if d := geom.DistRR(boxes[i], boxes[b*stride]); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			nn = append(nn, best)
		}
		edges = append(edges, max(boxes[i].Width(), boxes[i].Height()))
	}
	sort.Float64s(nn)
	sort.Float64s(edges)
	var cell float64
	if len(nn) > 0 {
		cell = 2 * nn[len(nn)/4] * math.Sqrt(float64(s)/float64(n))
	}
	if floor := windowFloor(bb, n); cell < floor {
		cell = floor
	}
	if med := edges[len(edges)/2]; cell < med {
		cell = med
	}
	if !(cell > 0) {
		return AutoCell(boxes)
	}
	return cell
}

// kernelBoxes draws n boxes of one of four shapes: lattice points (rich in
// exact distance ties), zero-extent points at random coordinates, small
// random boxes, and a mix with a few fat boxes wider than most gaps.
func kernelBoxes(r *rand.Rand, n int) []geom.Rect {
	shape := r.Intn(4)
	boxes := make([]geom.Rect, n)
	for i := range boxes {
		switch shape {
		case 0:
			p := geom.UV{U: float64(r.Intn(12)) * 5, V: float64(r.Intn(12)) * 5}
			boxes[i] = geom.RectFromUV(p)
		case 1:
			boxes[i] = geom.RectFromUV(geom.UV{U: r.Float64() * 1e4, V: r.Float64() * 1e4})
		case 2:
			boxes[i] = randRect(r, 1e3, 20)
		default:
			ext := 5.0
			if r.Intn(8) == 0 {
				ext = 400
			}
			u, v := float64(r.Intn(40))*25, float64(r.Intn(40))*25
			boxes[i] = geom.Rect{ULo: u, UHi: u + float64(r.Intn(3))*ext, VLo: v, VHi: v + float64(r.Intn(3))*ext}
		}
	}
	return boxes
}

// TestDensityCellMatchesAllPairs: the sort-and-sweep DensityCell is bitwise
// the all-pairs one, over random placements of every shape and size,
// n = 1 and n < 16 included.
func TestDensityCellMatchesAllPairs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(600)
		if trial%3 == 0 {
			n = 1 + r.Intn(16)
		}
		boxes := kernelBoxes(r, n)
		got, want := DensityCell(boxes), densityCellAllPairs(boxes)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): DensityCell %v, all pairs %v", trial, n, got, want)
		}
	}
}

// TestNearestFreeMatchesScan: GridPairer.NearestFree answers the
// anti-starvation query exactly as a scan over the live, unused items by
// raw distance with smallest-id ties, over random live sets and used masks,
// on lattice ties and with oversized items in the overflow list. The
// pairer's key adds a per-pair excess, which NearestFree must ignore.
func TestNearestFreeMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	overflowTrials := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(300)
		boxes := kernelBoxes(r, n)
		dist := func(i, j int) float64 { return geom.DistRR(boxes[i], boxes[j]) }
		box := func(id int) geom.Rect { return boxes[id] }
		key := func(i, j int, d float64) float64 { return d + float64((7*i+13*j)%5)*3 }
		p := NewGridPairer(AutoCell(boxes)*(0.25+r.Float64()), 0, box, dist, key)
		live := make([]bool, n)
		for i := range boxes {
			p.Insert(i)
			live[i] = true
		}
		for i := range live {
			if r.Intn(3) == 0 {
				p.Delete(i)
				live[i] = false
			}
		}
		used := make([]bool, n)
		for i := range used {
			used[i] = r.Intn(4) == 0
		}
		for i := range boxes {
			if !live[i] {
				continue
			}
			want, wantD := -1, math.Inf(1)
			for j := range boxes {
				if j == i || !live[j] || used[j] {
					continue
				}
				if d := dist(i, j); d < wantD || (d == wantD && j < want) {
					want, wantD = j, d
				}
			}
			got, ok := p.NearestFree(i, used)
			if ok != (want >= 0) || got.I != i || ok && (got.J != want || got.Key != wantD) {
				t.Fatalf("trial %d, item %d: NearestFree = %+v, %v; scan (%d, %v)", trial, i, got, ok, want, wantD)
			}
		}
		if len(p.Index().over) > 0 {
			overflowTrials++
		}
	}
	if overflowTrials == 0 {
		t.Error("no trial put an item in the overflow list")
	}
}
