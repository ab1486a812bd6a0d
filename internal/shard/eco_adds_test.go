package shard

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/geom"
	"repro/internal/instio"
)

// TestEcoAddsJoinNearestLiveSink is a seeded differential of the dirty
// set's shard assignment for added sinks. The scripts mix moves, removals
// and additions; some additions bridge from one sink toward a sink of
// another shard in small steps, so each step's nearest live sink is the
// previous step, and some land next to a removed sink. Every added sink must
// join the shard of its nearest live sink at its point in the script, as a
// linear scan over the placement edited so far finds it (Manhattan
// distance, smallest id on ties). Scripts without removals chain a second
// hop, which checks the index the first rebuild hands to the chained cache.
func TestEcoAddsJoinNearestLiveSink(t *testing.T) {
	in := ecoInstance(1200, 3)
	full, err := BuildEco(in, core.Options{Shards: 4}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		removals := seed%2 == 1
		sc := randomEcoScript(rng, in, full.Parts, removals)
		res := checkAddShards(t, seed, full.Eco, sc)
		if removals {
			continue
		}
		sc2 := randomEcoScript(rng, res.Instance, res.Parts, false)
		checkAddShards(t, seed, res.Eco, sc2)
	}
}

// checkAddShards rebuilds c under sc and requires every added sink to sit
// in the shard wantAddShards names for it.
func checkAddShards(t *testing.T, seed int64, c *EcoCache, sc *instio.EditScript) *Result {
	t.Helper()
	want := wantAddShards(c.Instance, c.Parts, sc)
	_, rm, err := sc.Apply(c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Rebuild(sc)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	shardOf := make([]int, len(res.Instance.Sinks))
	for i, p := range res.Parts {
		for _, s := range p {
			shardOf[s] = i
		}
	}
	for j, id := range rm.Added {
		if shardOf[id] != want[j] {
			t.Errorf("seed %d: addition %d (sink %d) joined shard %d, want %d", seed, j, id, shardOf[id], want[j])
		}
	}
	return res
}

// wantAddShards replays sc over in's placement in script order and returns
// each addition's expected shard: that of its nearest live sink by DistRR
// of the point boxes, smallest id on ties. Original sinks keep their shard
// in parts wherever they move; an earlier addition has the shard it was
// given. Ids are the dirty set's: originals keep theirs, and additions
// continue densely after them.
func wantAddShards(in *ctree.Instance, parts [][]int, sc *instio.EditScript) []int {
	n := len(in.Sinks)
	shardOf := make([]int, n)
	for i, p := range parts {
		for _, s := range p {
			shardOf[s] = i
		}
	}
	loc := make([]geom.Point, n)
	live := make([]bool, n)
	for i, s := range in.Sinks {
		loc[i], live[i] = s.Loc, true
	}
	var want []int
	for _, e := range sc.Edits {
		switch e.Op {
		case instio.OpMove:
			loc[e.Sink] = e.Loc
		case instio.OpRemove:
			live[e.Sink] = false
		case instio.OpAdd:
			q := geom.RectFromPoint(e.Loc)
			best, bestD := -1, math.Inf(1)
			for id, p := range loc {
				if d := geom.DistRR(q, geom.RectFromPoint(p)); live[id] && d < bestD {
					best, bestD = id, d
				}
			}
			loc, live = append(loc, e.Loc), append(live, true)
			shardOf = append(shardOf, shardOf[best])
			want = append(want, shardOf[best])
		}
	}
	return want
}

// randomEcoScript draws a script over distinct sinks of in. A moved sink
// lands next to a sink of another shard and gets an addition beside its new
// place. With removals, a removed sink gets a sink of another shard moved
// next to it and an addition on top of it. Scattered additions follow, then
// two bridges of additions stepping from a sink toward one of another shard.
// Each shape has a different answer if the index misses the move, the
// removal or an earlier addition.
func randomEcoScript(rng *rand.Rand, in *ctree.Instance, parts [][]int, removals bool) *instio.EditScript {
	shardOf := make([]int, len(in.Sinks))
	for i, p := range parts {
		for _, s := range p {
			shardOf[s] = i
		}
	}
	perm := rng.Perm(len(in.Sinks))
	next := func() ctree.Sink {
		s := in.Sinks[perm[0]]
		perm = perm[1:]
		return s
	}
	foreign := func(s ctree.Sink) ctree.Sink { // the next sink outside s's shard
		for {
			if u := next(); shardOf[u.ID] != shardOf[s.ID] {
				return u
			}
		}
	}
	at := func(p geom.Point, dx, dy float64) geom.Point { return geom.Point{X: p.X + dx, Y: p.Y + dy} }
	move := func(s ctree.Sink, to geom.Point) instio.Edit {
		return instio.Edit{Op: instio.OpMove, Sink: s.ID, Loc: to}
	}
	add := func(to geom.Point, like ctree.Sink) instio.Edit {
		return instio.Edit{Op: instio.OpAdd, Loc: to, CapFF: like.CapFF, Group: like.Group}
	}
	var edits []instio.Edit
	for i := 0; i < 3; i++ {
		s := next()
		edits = append(edits, move(s, at(s.Loc, rng.Float64()*400-200, rng.Float64()*400-200)))
	}
	for i := 0; i < 2; i++ {
		s := next()
		t := foreign(s)
		edits = append(edits, move(s, at(t.Loc, 3, 0)), add(at(t.Loc, 3.5, 0.5), s))
	}
	if removals {
		for i := 0; i < 2; i++ {
			s := next()
			u := foreign(s)
			edits = append(edits, move(u, at(s.Loc, 2, 0)),
				instio.Edit{Op: instio.OpRemove, Sink: s.ID}, add(at(s.Loc, 0.25, 0), s))
		}
	}
	for i := 0; i < 4; i++ {
		s := next()
		edits = append(edits, add(at(s.Loc, rng.Float64()*600-300, rng.Float64()*600-300), s))
	}
	for b := 0; b < 2; b++ {
		from := next()
		to := foreign(from)
		for k := 1; k <= 6; k++ {
			f := float64(k) / 10
			edits = append(edits, add(at(from.Loc, f*(to.Loc.X-from.Loc.X), f*(to.Loc.Y-from.Loc.Y)), from))
		}
	}
	return &instio.EditScript{Name: "eco-adds", Edits: edits}
}
