package order

import (
	"math"
	"testing"
)

// TestAgesResetOnMerge: merged replacements start with age zero.
func TestAgesResetOnMerge(t *testing.T) {
	coords := []float64{0, 1, 100, 101}
	dist := func(i, j int) float64 { return math.Abs(coords[i] - coords[j]) }
	q := New(Config{Strategy: Multi}, 4, dist)
	batch := q.NextBatch()
	if len(batch) == 0 {
		t.Fatal("no merge")
	}
	coords = append(coords, (coords[batch[0].I]+coords[batch[0].J])/2)
	q.Merged(len(coords) - 1)
	if got := q.age[len(coords)-1]; got != 0 {
		t.Errorf("new item age = %d", got)
	}
}
