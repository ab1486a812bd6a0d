package instio

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/geom"
)

// TestReadEditsRejects pins the structural validation of the edit-script
// parser: unknown ops, missing or contradictory payload fields, non-finite
// numbers, negative ids, duplicate targets and empty scripts all die as
// parse errors naming the edit — never as a wrong dirty set three layers
// down. So does anything after the script's JSON object.
func TestReadEditsRejects(t *testing.T) {
	cases := map[string]string{
		"unknown op":        `{"edits":[{"op":"swap","sink":0}]}`,
		"empty script":      `{"edits":[]}`,
		"no edits key":      `{"name":"x"}`,
		"move without x":    `{"edits":[{"op":"move","sink":0,"y":1}]}`,
		"move without sink": `{"edits":[{"op":"move","x":1,"y":1}]}`,
		"move with cap":     `{"edits":[{"op":"move","sink":0,"x":1,"y":1,"cap_ff":2}]}`,
		"reload without":    `{"edits":[{"op":"reload","sink":0}]}`,
		"reload with loc":   `{"edits":[{"op":"reload","sink":0,"cap_ff":1,"x":3}]}`,
		"add with sink":     `{"edits":[{"op":"add","sink":0,"x":1,"y":1,"cap_ff":1,"group":0}]}`,
		"add without group": `{"edits":[{"op":"add","x":1,"y":1,"cap_ff":1}]}`,
		"remove with x":     `{"edits":[{"op":"remove","sink":0,"x":1}]}`,
		"inf move":          `{"edits":[{"op":"move","sink":0,"x":1e999,"y":0}]}`,
		"zero cap":          `{"edits":[{"op":"reload","sink":0,"cap_ff":0}]}`,
		"negative cap":      `{"edits":[{"op":"add","x":1,"y":1,"cap_ff":-2,"group":0}]}`,
		"negative sink":     `{"edits":[{"op":"remove","sink":-1}]}`,
		"negative group":    `{"edits":[{"op":"add","x":1,"y":1,"cap_ff":1,"group":-1}]}`,
		"duplicate target":  `{"edits":[{"op":"move","sink":3,"x":1,"y":1},{"op":"remove","sink":3}]}`,
		"unknown field":     `{"edits":[{"op":"remove","sink":0,"why":"because"}]}`,
		"trailing junk":     `{"edits":[{"op":"remove","sink":0}]} xyz`,
		"two scripts":       `{"edits":[{"op":"remove","sink":0}]}{"edits":[{"op":"remove","sink":1}]}`,
	}
	for name, c := range cases {
		if _, err := ReadEdits(strings.NewReader(c)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEditsRoundTrip: a valid script survives write→read unchanged, and a
// hand-built script the reader would refuse does not serialize.
func TestEditsRoundTrip(t *testing.T) {
	sc := &EditScript{Name: "rt", Edits: []Edit{
		{Op: OpMove, Sink: 2, Loc: geom.Point{X: 4.5, Y: -1}},
		{Op: OpReload, Sink: 0, CapFF: 2.25},
		{Op: OpRemove, Sink: 1},
		{Op: OpAdd, Loc: geom.Point{X: 0, Y: 9}, CapFF: 1.5, Group: 1},
	}}
	var buf bytes.Buffer
	if err := WriteEdits(&buf, sc); err != nil {
		t.Fatal(err)
	}
	again, err := ReadEdits(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Name != sc.Name || len(again.Edits) != len(sc.Edits) {
		t.Fatalf("round trip changed the script: %+v", again)
	}
	for i := range sc.Edits {
		if again.Edits[i] != sc.Edits[i] {
			t.Errorf("edit %d changed: %+v vs %+v", i, again.Edits[i], sc.Edits[i])
		}
	}
	buf.Reset()
	if err := WriteEdits(&buf, &EditScript{Edits: []Edit{{Op: OpReload, Sink: 0, CapFF: -1}}}); err == nil {
		t.Error("invalid script serialized")
	}
}

// TestApplyRenumbers pins the remap contract: removals leave a dense
// renumbering, additions extend it, payloads land on the right sinks, and
// the input instance is never mutated.
func TestApplyRenumbers(t *testing.T) {
	in := bench.Intermingled(bench.Small(6, 3), 2, 11)
	before := in.Sinks[0].CapFF
	sc := &EditScript{Name: "eco", Edits: []Edit{
		{Op: OpRemove, Sink: 2},
		{Op: OpMove, Sink: 4, Loc: geom.Point{X: 100, Y: 200}},
		{Op: OpReload, Sink: 0, CapFF: 7},
		{Op: OpAdd, Loc: geom.Point{X: 3, Y: 3}, CapFF: 2, Group: 1},
		{Op: OpAdd, Loc: geom.Point{X: 4, Y: 4}, CapFF: 3, Group: 0},
	}}
	out, rm, err := sc.Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Sinks) != 7 {
		t.Fatalf("edited instance has %d sinks, want 7", len(out.Sinks))
	}
	want := []int{0, 1, -1, 2, 3, 4}
	for old, ns := range rm.OldToNew {
		if ns != want[old] {
			t.Errorf("OldToNew[%d] = %d, want %d", old, ns, want[old])
		}
	}
	if len(rm.Added) != 2 || rm.Added[0] != 5 || rm.Added[1] != 6 {
		t.Errorf("Added = %v, want [5 6]", rm.Added)
	}
	for i, s := range out.Sinks {
		if s.ID != i {
			t.Errorf("sink %d carries id %d", i, s.ID)
		}
	}
	if out.Sinks[3].Loc != (geom.Point{X: 100, Y: 200}) {
		t.Errorf("move lost after renumbering: %+v", out.Sinks[3])
	}
	if out.Sinks[0].CapFF != 7 {
		t.Errorf("reload lost: %+v", out.Sinks[0])
	}
	if out.Sinks[5].Group != 1 || out.Sinks[6].CapFF != 3 {
		t.Errorf("adds wrong: %+v %+v", out.Sinks[5], out.Sinks[6])
	}
	if out.Name != in.Name+"+eco" {
		t.Errorf("edited name %q", out.Name)
	}
	if in.Sinks[0].CapFF != before || len(in.Sinks) != 6 {
		t.Error("Apply mutated its input")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}

	// The empty script is a valid no-op ECO: identity remap, equal sinks.
	noop, nrm, err := (&EditScript{}).Apply(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(noop.Sinks) != len(in.Sinks) || len(nrm.Added) != 0 {
		t.Fatalf("noop apply changed the instance")
	}
	for old, ns := range nrm.OldToNew {
		if ns != old {
			t.Fatalf("noop remap not identity at %d: %d", old, ns)
		}
	}
}

// TestApplyRejects covers the instance-dependent failures: unknown sinks,
// out-of-range groups, and the edit set that empties a group (the routing
// contract has no tree for a groupless instance).
func TestApplyRejects(t *testing.T) {
	in := bench.Intermingled(bench.Small(6, 3), 3, 11)
	if _, _, err := (&EditScript{Edits: []Edit{{Op: OpMove, Sink: 6, Loc: geom.Point{X: 1, Y: 1}}}}).Apply(in); err == nil {
		t.Error("unknown sink accepted")
	}
	if _, _, err := (&EditScript{Edits: []Edit{{Op: OpAdd, Loc: geom.Point{X: 1, Y: 1}, CapFF: 1, Group: 3}}}).Apply(in); err == nil {
		t.Error("out-of-range group accepted")
	}
	// Remove every sink of one group.
	var empty []Edit
	for _, s := range in.Sinks {
		if s.Group == 1 {
			empty = append(empty, Edit{Op: OpRemove, Sink: s.ID})
		}
	}
	if _, _, err := (&EditScript{Edits: empty}).Apply(in); err == nil {
		t.Error("emptied group accepted")
	}
}

// TestPerturbDeterministic pins the benchmark generator: the script is a
// pure function of (instance, frac, seed), applies cleanly, serializes, and
// scales with the fraction.
func TestPerturbDeterministic(t *testing.T) {
	in := bench.Intermingled(bench.Small(500, 7), 4, 13)
	a, err := Perturb(in, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Perturb(in, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edits) != len(b.Edits) {
		t.Fatalf("same seed produced %d and %d edits", len(a.Edits), len(b.Edits))
	}
	for i := range a.Edits {
		if a.Edits[i] != b.Edits[i] {
			t.Fatalf("same seed diverged at edit %d: %+v vs %+v", i, a.Edits[i], b.Edits[i])
		}
	}
	if c, _ := Perturb(in, 0.02, 43); c != nil && len(c.Edits) == len(a.Edits) {
		same := true
		for i := range c.Edits {
			if c.Edits[i] != a.Edits[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical scripts")
		}
	}
	if want := int(0.02 * 500); len(a.Edits) < want/2 || len(a.Edits) > 2*want {
		t.Errorf("budget: %d edits for frac 0.02 of 500 sinks", len(a.Edits))
	}
	if _, _, err := a.Apply(in); err != nil {
		t.Fatalf("perturb script does not apply: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteEdits(&buf, a); err != nil {
		t.Fatalf("perturb script does not serialize: %v", err)
	}
	if _, err := ReadEdits(&buf); err != nil {
		t.Fatalf("perturb script does not re-read: %v", err)
	}
	// The minimal ECO: a tiny fraction still produces at least one edit.
	tiny, err := Perturb(in, 1e-9, 1)
	if err != nil || len(tiny.Edits) == 0 {
		t.Fatalf("tiny fraction: %v, %d edits", err, len(tiny.Edits))
	}
	if _, err := Perturb(in, 0, 1); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := Perturb(in, 1.5, 1); err == nil {
		t.Error("fraction above 1 accepted")
	}
}

// TestNearestSinksMatchesFullSort pins Perturb's edit neighborhood against
// the full sort it replaces: the first m of all sinks sorted by (Manhattan
// distance to the focal point, id), over seeded random placements with
// repeated locations and a unit grid where most distances tie, for counts
// from one sink to all of them.
func TestNearestSinksMatchesFullSort(t *testing.T) {
	var grid []ctree.Sink
	for i := 0; i < 400; i++ {
		grid = append(grid, ctree.Sink{ID: i, Loc: geom.Point{X: float64(i % 20), Y: float64(i / 20)}})
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		random := make([]ctree.Sink, 700)
		for i := range random {
			loc := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			if i > 0 && rng.Intn(4) == 0 {
				loc = random[rng.Intn(i)].Loc
			}
			random[i] = ctree.Sink{ID: i, Loc: loc}
		}
		for _, sinks := range [][]ctree.Sink{random, grid} {
			focal := sinks[rng.Intn(len(sinks))].Loc
			if seed%2 == 0 {
				focal.X += 0.5 // between grid columns: ties on both sides
			}
			ref := make([]int, len(sinks))
			for i := range ref {
				ref[i] = i
			}
			sort.Slice(ref, func(a, b int) bool {
				da, db := geom.Dist(sinks[ref[a]].Loc, focal), geom.Dist(sinks[ref[b]].Loc, focal)
				if da != db {
					return da < db
				}
				return ref[a] < ref[b]
			})
			for _, frac := range []float64{0.001, 0.01, 0.1, 0.5, 1} {
				m := max(1, int(frac*float64(len(sinks))))
				if got := nearestSinks(sinks, focal, m); !slices.Equal(got, ref[:m]) {
					t.Fatalf("seed %d, %d sinks, m %d: got %v, want %v", seed, len(sinks), m, got, ref[:m])
				}
			}
		}
	}
}

// FuzzReadEdits asserts the edit-script parser never panics on arbitrary
// input, that anything it accepts survives a write→read round trip
// unchanged, and that applying an accepted script to an instance fails
// cleanly or produces a valid edited instance — never a panic.
func FuzzReadEdits(f *testing.F) {
	in := bench.Intermingled(bench.Small(12, 4), 2, 7)
	seed, err := Perturb(in, 0.4, 3)
	if err != nil {
		f.Fatal(err)
	}
	var seedBuf bytes.Buffer
	if err := WriteEdits(&seedBuf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.String())
	f.Add(`{"name":"s","edits":[{"op":"move","sink":0,"x":1,"y":2}]}`)
	f.Add(`{"edits":[{"op":"add","x":0,"y":0,"cap_ff":1,"group":0}]}`)
	f.Add(`{"edits":[{"op":"remove","sink":11}]}`)
	f.Add(`{"edits":[{}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		sc, err := ReadEdits(strings.NewReader(data)) // must never panic
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdits(&buf, sc); err != nil {
			t.Fatalf("accepted script fails to write: %v", err)
		}
		again, err := ReadEdits(&buf)
		if err != nil {
			t.Fatalf("written script fails to re-read: %v", err)
		}
		if again.Name != sc.Name || len(again.Edits) != len(sc.Edits) {
			t.Fatal("round trip changed the script header")
		}
		for i := range sc.Edits {
			if again.Edits[i] != sc.Edits[i] {
				t.Fatalf("round trip changed edit %d: %+v vs %+v", i, again.Edits[i], sc.Edits[i])
			}
		}
		out, rm, err := sc.Apply(in) // must never panic; errors are fine
		if err != nil {
			return
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("accepted apply produced invalid instance: %v", err)
		}
		if len(rm.OldToNew) != len(in.Sinks) {
			t.Fatalf("remap covers %d of %d sinks", len(rm.OldToNew), len(in.Sinks))
		}
	})
}
