// Package bench reconstructs the r1–r5 clock routing benchmark suite used by
// the thesis's experiments (originally from the bounded-skew literature) and
// provides the two sink-grouping generators of Chapter VI:
//
//   - Clustered: the die is divided into as many rectangles as groups and
//     sinks share a group iff they share a rectangle (experiment 1);
//   - Intermingled: sinks are assigned to groups uniformly at random, so
//     groups interpenetrate geometrically (experiment 2, the "difficult
//     instances").
//
// The original r1–r5 coordinate files are not available offline, so the
// instances are synthesized with the published sink counts, uniform-random
// sink placements over a die scaled with sqrt(n) (keeping wirelengths at the
// paper's order of magnitude), and random sink load capacitances, all under
// fixed seeds for reproducibility. The thesis's conclusions are relative —
// AST-DME's wirelength against EXT-BST's on the same instance, per grouping
// and group count — so they rest on the sink counts, the grouping and a
// delay regime in which the 10 ps bound is tight (core.DefaultModel is
// calibrated for that), not on the exact coordinates. Absolute wirelengths
// match the thesis's in order of magnitude only.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ctree"
	"repro/internal/geom"
)

// Spec describes one synthetic benchmark circuit.
type Spec struct {
	Name  string
	Sinks int
	// Side is the die edge length in layout units.
	Side float64
	// Seed fixes the pseudo-random placement.
	Seed int64
	// Dist selects the sink placement: "" or "uniform" for uniform-random
	// over the die, "powerlaw" for the clustered power-law placement
	// (PowerLaw with the standard 32 clusters at α = 1.5).
	Dist string
}

// Standard power-law placement parameters used by the "powerlaw" specs and
// the scale sweeps: 32 clusters with weight c^−1.5.
const (
	PowerLawClusters = 32
	PowerLawAlpha    = 1.5
)

// side returns the default die edge for n sinks: proportional to sqrt(n) so
// that average sink density — and thus wirelength per sink — matches across
// custom instances.
func side(n int) float64 { return 3200 * math.Sqrt(float64(n)) }

// Suite returns the five circuits with the thesis's sink counts
// (r1: 267 … r5: 3101). Die edges are calibrated per circuit so that the
// EXT-BST wirelengths land at the magnitudes the thesis reports (its Table I
// column 4: 1.07e6 for r1 up to 8.03e6 for r5); the original benchmarks'
// densities varied across circuits, so a single density constant cannot
// match all five.
func Suite() []Spec {
	specs := []Spec{
		{Name: "r1", Sinks: 267, Side: 52300},
		{Name: "r2", Sinks: 598, Side: 70900},
		{Name: "r3", Sinks: 862, Side: 74300},
		{Name: "r4", Sinks: 1903, Side: 99700},
		{Name: "r5", Sinks: 3101, Side: 115200},
	}
	for i := range specs {
		specs[i].Seed = int64(1000 + i)
	}
	return specs
}

// LargeSuite returns the large-instance scaling circuits introduced with
// the spatial pairing subsystem, an order of magnitude and more beyond the
// thesis's r5: 10k, 50k and 100k sinks uniform over a √n-scaled die
// (l10k/l50k/l100k), plus the power-law-clustered counterparts
// (p10k/p50k/p100k) that stress the spatial grid's cell adaptation — the
// clustered-placement gap the scale sweeps track longitudinally. These are
// the instances the sub-quadratic pairer exists for; the all-pairs oracle
// is impractical on them.
func LargeSuite() []Spec {
	return []Spec{
		{Name: "l10k", Sinks: 10_000, Side: side(10_000), Seed: 1100},
		{Name: "l50k", Sinks: 50_000, Side: side(50_000), Seed: 1101},
		{Name: "l100k", Sinks: 100_000, Side: side(100_000), Seed: 1102},
		{Name: "p10k", Sinks: 10_000, Side: side(10_000), Seed: 1100, Dist: "powerlaw"},
		{Name: "p50k", Sinks: 50_000, Side: side(50_000), Seed: 1101, Dist: "powerlaw"},
		{Name: "p100k", Sinks: 100_000, Side: side(100_000), Seed: 1102, Dist: "powerlaw"},
	}
}

// BySuiteName returns the named circuit spec ("r1".."r5", or the scaling
// instances l10k/l50k/l100k and p10k/p50k/p100k).
func BySuiteName(name string) (Spec, error) {
	for _, s := range append(Suite(), LargeSuite()...) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown circuit %q (want r1..r5, l10k/l50k/l100k, or p10k/p50k/p100k)", name)
}

// Sink load capacitance range (fF), uniform.
const (
	minSinkCapFF = 5
	maxSinkCapFF = 50
)

// Generate materializes the circuit with a single sink group (group 0),
// honoring the spec's placement distribution. Use Clustered or Intermingled
// to impose a k-group structure.
func Generate(sp Spec) *ctree.Instance {
	if sp.Dist == "powerlaw" {
		edge := sp.Side
		if !(edge > 0) {
			edge = side(sp.Sinks)
		}
		in := powerLawSized(sp.Sinks, PowerLawClusters, PowerLawAlpha, sp.Seed, edge)
		in.Name = sp.Name
		return in
	}
	r := rand.New(rand.NewSource(sp.Seed))
	in := &ctree.Instance{
		Name:      sp.Name,
		Sinks:     make([]ctree.Sink, sp.Sinks),
		Source:    geom.Point{X: sp.Side / 2, Y: sp.Side / 2},
		NumGroups: 1,
	}
	for i := range in.Sinks {
		in.Sinks[i] = ctree.Sink{
			ID:    i,
			Loc:   geom.Point{X: r.Float64() * sp.Side, Y: r.Float64() * sp.Side},
			CapFF: minSinkCapFF + r.Float64()*(maxSinkCapFF-minSinkCapFF),
			Group: 0,
		}
	}
	return in
}

// gridShape factors k into rows×cols with rows ≤ cols and rows·cols = k,
// maximizing rows (squarest grid). Prime k degenerates to 1×k.
func gridShape(k int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= k; r++ {
		if k%r == 0 {
			rows = r
		}
	}
	return rows, k / rows
}

// Clustered returns a copy of the instance with k groups induced by dividing
// the die bounding box into a rows×cols rectangle grid (experiment 1 of the
// thesis: "if sinks are in the same rectangle space, they are in the same
// group"). Rare empty rectangles are filled by moving the nearest sink's
// group label, keeping every group non-empty.
func Clustered(base *ctree.Instance, k int) *ctree.Instance {
	in := clone(base)
	in.NumGroups = k
	if k == 1 {
		for i := range in.Sinks {
			in.Sinks[i].Group = 0
		}
		return in
	}
	rows, cols := gridShape(k)
	xmin, ymin, xmax, ymax := boundsOf(in)
	w := (xmax - xmin) / float64(cols)
	h := (ymax - ymin) / float64(rows)
	boxIdx := func(p geom.Point) int {
		c := int((p.X - xmin) / w)
		r := int((p.Y - ymin) / h)
		if c >= cols {
			c = cols - 1
		}
		if r >= rows {
			r = rows - 1
		}
		return r*cols + c
	}
	count := make([]int, k)
	for i := range in.Sinks {
		g := boxIdx(in.Sinks[i].Loc)
		in.Sinks[i].Group = g
		count[g]++
	}
	// Guarantee non-empty groups: steal the sink nearest each empty box's
	// center from a group that can spare one.
	for g := 0; g < k; g++ {
		if count[g] > 0 {
			continue
		}
		cx := xmin + (float64(g%cols)+0.5)*w
		cy := ymin + (float64(g/cols)+0.5)*h
		best, bestD := -1, math.Inf(1)
		for i := range in.Sinks {
			if count[in.Sinks[i].Group] <= 1 {
				continue
			}
			d := geom.Dist(in.Sinks[i].Loc, geom.Point{X: cx, Y: cy})
			if d < bestD {
				best, bestD = i, d
			}
		}
		count[in.Sinks[best].Group]--
		in.Sinks[best].Group = g
		count[g]++
	}
	in.Name = fmt.Sprintf("%s-clustered-k%d", base.Name, k)
	return in
}

// Intermingled returns a copy of the instance with k groups assigned by a
// seeded random shuffle with round-robin balancing, so every group spreads
// over the whole die (experiment 2 of the thesis, the difficult instances).
func Intermingled(base *ctree.Instance, k int, seed int64) *ctree.Instance {
	in := clone(base)
	in.NumGroups = k
	perm := rand.New(rand.NewSource(seed)).Perm(len(in.Sinks))
	for pos, i := range perm {
		in.Sinks[i].Group = pos % k
	}
	in.Name = fmt.Sprintf("%s-intermingled-k%d", base.Name, k)
	return in
}

// Blend returns a copy of the instance whose k groups interpolate between
// the two experiments: each sink keeps its Clustered group with probability
// 1−mix and is reassigned uniformly at random with probability mix. mix=0
// reproduces Clustered, mix=1 is statistically equivalent to Intermingled.
// The knob sweeps the "difficulty" axis of the thesis's title: instances get
// harder as the sink groups interpenetrate.
func Blend(base *ctree.Instance, k int, mix float64, seed int64) *ctree.Instance {
	if mix < 0 {
		mix = 0
	}
	if mix > 1 {
		mix = 1
	}
	in := Clustered(base, k)
	r := rand.New(rand.NewSource(seed))
	for i := range in.Sinks {
		if r.Float64() < mix {
			in.Sinks[i].Group = r.Intn(k)
		}
	}
	// Re-fill any group emptied by the reassignment.
	count := make([]int, k)
	for _, s := range in.Sinks {
		count[s.Group]++
	}
	for g := 0; g < k; g++ {
		for count[g] == 0 {
			i := r.Intn(len(in.Sinks))
			if count[in.Sinks[i].Group] > 1 {
				count[in.Sinks[i].Group]--
				in.Sinks[i].Group = g
				count[g]++
			}
		}
	}
	in.Name = fmt.Sprintf("%s-blend%.2f-k%d", base.Name, mix, k)
	return in
}

func clone(in *ctree.Instance) *ctree.Instance {
	out := *in
	out.Sinks = append([]ctree.Sink(nil), in.Sinks...)
	return &out
}

func boundsOf(in *ctree.Instance) (xmin, ymin, xmax, ymax float64) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	for _, s := range in.Sinks {
		xmin = math.Min(xmin, s.Loc.X)
		xmax = math.Max(xmax, s.Loc.X)
		ymin = math.Min(ymin, s.Loc.Y)
		ymax = math.Max(ymax, s.Loc.Y)
	}
	return
}

// Small returns a small n-sink instance for tests and examples, uniform over
// a die sized for n, with a fixed seed.
func Small(n int, seed int64) *ctree.Instance {
	sp := Spec{Name: fmt.Sprintf("small%d", n), Sinks: n, Side: side(n), Seed: seed}
	return Generate(sp)
}

// PowerLaw generates an n-sink instance whose sinks concentrate around
// cluster centers with power-law populations: cluster c (1-based) receives
// weight c^−alpha, centers are uniform over a die sized for n, and members
// scatter around their center with Gaussian spread σ = side/(4·√clusters),
// clamped to the die. alpha in [1, 2] yields a few dense hot spots over a
// sparse background — the clustered placement of the large-instance scaling
// scenarios, as opposed to the uniform placement of Generate, and a
// stress case for the spatial grid's fixed cell size (hot cells hold many
// items, empty regions many empty cells). alpha = 0 degenerates to equal
// cluster sizes; clusters = 1 to a single Gaussian blob.
func PowerLaw(n, clusters int, alpha float64, seed int64) *ctree.Instance {
	return powerLawSized(n, clusters, alpha, seed, side(n))
}

// powerLawSized is PowerLaw on an explicit die edge (Generate passes the
// spec's Side so powerlaw and uniform specs compare on equal dies).
func powerLawSized(n, clusters int, alpha float64, seed int64, s float64) *ctree.Instance {
	if clusters < 1 {
		clusters = 1
	}
	r := rand.New(rand.NewSource(seed))
	centers := make([]geom.Point, clusters)
	for c := range centers {
		centers[c] = geom.Point{X: r.Float64() * s, Y: r.Float64() * s}
	}
	// Cumulative power-law weights for cluster sampling.
	cum := make([]float64, clusters)
	total := 0.0
	for c := 0; c < clusters; c++ {
		total += math.Pow(float64(c+1), -alpha)
		cum[c] = total
	}
	sigma := s / (4 * math.Sqrt(float64(clusters)))
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 0), s) }
	in := &ctree.Instance{
		Name:      fmt.Sprintf("powerlaw%d-c%d", n, clusters),
		Sinks:     make([]ctree.Sink, n),
		Source:    geom.Point{X: s / 2, Y: s / 2},
		NumGroups: 1,
	}
	for i := range in.Sinks {
		u := r.Float64() * total
		c := sort.SearchFloat64s(cum, u)
		if c >= clusters {
			c = clusters - 1
		}
		in.Sinks[i] = ctree.Sink{
			ID: i,
			Loc: geom.Point{
				X: clamp(centers[c].X + r.NormFloat64()*sigma),
				Y: clamp(centers[c].Y + r.NormFloat64()*sigma),
			},
			CapFF: minSinkCapFF + r.Float64()*(maxSinkCapFF-minSinkCapFF),
			Group: 0,
		}
	}
	return in
}
