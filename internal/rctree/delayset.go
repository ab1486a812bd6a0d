package rctree

// DelaySet maps sink groups to delay intervals as two parallel slices sorted
// by ascending group id. It replaces the map[int]Interval the routers'
// bottom-up bookkeeping originally used: a merge of two sets is one linear
// pass over both (no hashing, no per-node map allocation — the backing
// slices slab-allocate from an arena), lookups are binary searches, and
// every iteration order is the sorted one, which keeps anything derived
// from "first constraint hit" deterministic by construction.
//
// Group ids are stored as int32: they index the instance's group table,
// which is bounded by the sink count. The zero value is an empty set;
// distinguish "never computed" with IsZero (nil backing slice).
type DelaySet struct {
	// Groups holds the group ids, sorted ascending, no duplicates.
	Groups []int32
	// Ivs holds the delay interval of the group at the same index.
	Ivs []Interval
}

// PointDelaySet returns the single-group set {g: iv}.
func PointDelaySet(g int, iv Interval) DelaySet {
	return DelaySet{Groups: []int32{int32(g)}, Ivs: []Interval{iv}}
}

// MakeDelaySet returns an empty set with capacity for n groups.
func MakeDelaySet(n int) DelaySet {
	return DelaySet{Groups: make([]int32, 0, n), Ivs: make([]Interval, 0, n)}
}

// Len returns the number of groups in the set.
func (s DelaySet) Len() int { return len(s.Groups) }

// IsZero reports whether the set was never populated (nil backing slice);
// an empty but allocated set is not zero.
func (s DelaySet) IsZero() bool { return s.Groups == nil }

// At returns the i-th (group, interval) entry in ascending group order.
func (s DelaySet) At(i int) (int, Interval) { return int(s.Groups[i]), s.Ivs[i] }

// Get returns the interval of group g by binary search.
func (s DelaySet) Get(g int) (Interval, bool) {
	lo, hi := 0, len(s.Groups)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s.Groups[mid]) < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Groups) && int(s.Groups[lo]) == g {
		return s.Ivs[lo], true
	}
	return Interval{}, false
}

// Reset empties the set keeping its backing capacity.
func (s *DelaySet) Reset() {
	s.Groups = s.Groups[:0]
	s.Ivs = s.Ivs[:0]
}

// Push appends an entry. g must exceed the last group already present.
func (s *DelaySet) Push(g int32, iv Interval) {
	s.Groups = append(s.Groups, g)
	s.Ivs = append(s.Ivs, iv)
}

// Overall returns the smallest interval covering every group's interval
// (the zero interval for an empty set).
func (s DelaySet) Overall() Interval {
	if len(s.Ivs) == 0 {
		return Interval{}
	}
	iv := s.Ivs[0]
	for _, d := range s.Ivs[1:] {
		iv = Cover(iv, d)
	}
	return iv
}

// MaxWidth returns the width of the widest group interval (0 for an empty
// set): over a tree root's set, the largest delay spread within one group.
func (s DelaySet) MaxWidth() float64 {
	var w float64
	for _, iv := range s.Ivs {
		w = max(w, iv.Width())
	}
	return w
}

// Equal reports whether the two sets hold identical groups and intervals.
func (s DelaySet) Equal(t DelaySet) bool {
	if len(s.Groups) != len(t.Groups) {
		return false
	}
	for i, g := range s.Groups {
		if t.Groups[i] != g || t.Ivs[i] != s.Ivs[i] {
			return false
		}
	}
	return true
}

// MergeDelaysInto writes into dst the merge of a shifted by wa and b shifted
// by wb: the group-sorted union of both sets, covering the two shifted
// intervals of groups present on both sides. dst is reset first and must not
// alias a or b. This is the inner loop of every subtree merge; it runs one
// linear pass and allocates only if dst's capacity is short (slab-allocating
// callers size dst to a.Len()+b.Len() up front).
func MergeDelaysInto(dst *DelaySet, a DelaySet, wa float64, b DelaySet, wb float64) {
	dst.Reset()
	i, j := 0, 0
	for i < len(a.Groups) && j < len(b.Groups) {
		switch {
		case a.Groups[i] < b.Groups[j]:
			dst.Push(a.Groups[i], a.Ivs[i].Shift(wa))
			i++
		case a.Groups[i] > b.Groups[j]:
			dst.Push(b.Groups[j], b.Ivs[j].Shift(wb))
			j++
		default:
			dst.Push(a.Groups[i], Cover(a.Ivs[i].Shift(wa), b.Ivs[j].Shift(wb)))
			i++
			j++
		}
	}
	for ; i < len(a.Groups); i++ {
		dst.Push(a.Groups[i], a.Ivs[i].Shift(wa))
	}
	for ; j < len(b.Groups); j++ {
		dst.Push(b.Groups[j], b.Ivs[j].Shift(wb))
	}
}
