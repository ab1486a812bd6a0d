package rctree

import (
	"math/rand"
	"sort"
	"testing"
)

func TestDelaySetBasics(t *testing.T) {
	var s DelaySet
	if !s.IsZero() || s.Len() != 0 {
		t.Fatal("zero value not zero")
	}
	s = MakeDelaySet(4)
	if s.IsZero() {
		t.Fatal("allocated empty set reads as zero")
	}
	s.Push(2, Interval{Lo: 1, Hi: 2})
	s.Push(5, Interval{Lo: 3, Hi: 4})
	s.Push(9, Interval{Lo: 5, Hi: 6})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, want := range []int{2, 5, 9} {
		g, _ := s.At(i)
		if g != want {
			t.Fatalf("At(%d) group = %d, want %d", i, g, want)
		}
	}
	wantIv := map[int]Interval{2: {Lo: 1, Hi: 2}, 5: {Lo: 3, Hi: 4}, 9: {Lo: 5, Hi: 6}}
	for _, g := range []int{1, 2, 3, 5, 9, 10} {
		iv, ok := s.Get(g)
		want, wantOK := wantIv[g]
		if ok != wantOK || iv != want {
			t.Fatalf("Get(%d) = %v, %v; want %v, %v", g, iv, ok, want, wantOK)
		}
	}
	if ov := s.Overall(); ov != (Interval{Lo: 1, Hi: 6}) {
		t.Fatalf("Overall = %v", ov)
	}
	s.Reset()
	if s.Len() != 0 || s.IsZero() {
		t.Fatal("Reset broken")
	}
}

func TestDelaySetEqual(t *testing.T) {
	a := PointDelaySet(3, Interval{Lo: 1, Hi: 2})
	b := PointDelaySet(3, Interval{Lo: 1, Hi: 2})
	c := PointDelaySet(4, Interval{Lo: 1, Hi: 2})
	d := PointDelaySet(3, Interval{Lo: 1, Hi: 3})
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) || a.Equal(DelaySet{}) {
		t.Fatal("Equal wrong")
	}
}

// mapMerge is the reference merge the DelaySet kernel replaced: shift both
// sides, cover shared groups, union the key sets — as a plain map.
func mapMerge(a map[int]Interval, wa float64, b map[int]Interval, wb float64) map[int]Interval {
	out := make(map[int]Interval, len(a)+len(b))
	for g, iv := range a {
		out[g] = iv.Shift(wa)
	}
	for g, iv := range b {
		if prev, ok := out[g]; ok {
			out[g] = Cover(prev, iv.Shift(wb))
		} else {
			out[g] = iv.Shift(wb)
		}
	}
	return out
}

func randomDelayMap(r *rand.Rand, maxGroups int) map[int]Interval {
	m := make(map[int]Interval)
	for len(m) < 1+r.Intn(maxGroups) {
		lo := r.NormFloat64() * 100
		m[r.Intn(3*maxGroups)] = Interval{Lo: lo, Hi: lo + r.Float64()*10}
	}
	return m
}

func toDelaySet(m map[int]Interval) DelaySet {
	gs := make([]int, 0, len(m))
	for g := range m {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	s := MakeDelaySet(len(gs))
	for _, g := range gs {
		s.Push(int32(g), m[g])
	}
	return s
}

// TestMergeDelaysMatchesMapMerge is the property test pinning the flat
// kernel to the map semantics it replaced: on random group sets and shifts,
// MergeDelaysInto must produce exactly (bitwise) the same group → interval
// association as the map merge, in sorted group order.
func TestMergeDelaysMatchesMapMerge(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		ma := randomDelayMap(r, 8)
		mb := randomDelayMap(r, 8)
		wa := r.NormFloat64() * 50
		wb := r.NormFloat64() * 50
		want := mapMerge(ma, wa, mb, wb)

		var got DelaySet
		MergeDelaysInto(&got, toDelaySet(ma), wa, toDelaySet(mb), wb)

		if got.Len() != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, got.Len(), len(want))
		}
		prev := -1
		for i := 0; i < got.Len(); i++ {
			g, iv := got.At(i)
			if g <= prev {
				t.Fatalf("trial %d: groups not strictly ascending at %d", trial, i)
			}
			prev = g
			if w, ok := want[g]; !ok || w != iv {
				t.Fatalf("trial %d group %d: %v, want %v", trial, g, iv, want[g])
			}
		}
	}
}
