package instio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"

	"repro/internal/ctree"
	"repro/internal/geom"
)

// Edit operations. An edit script is the instio-level description of an
// engineering change order (ECO): a small batch of sink mutations against a
// previously routed instance, the input of the incremental rebuild path
// (shard.EcoCache.Rebuild).
const (
	// OpMove relocates sink Sink to (X, Y).
	OpMove = "move"
	// OpReload changes sink Sink's load capacitance to CapFF.
	OpReload = "reload"
	// OpAdd creates a new sink at (X, Y) with capacitance CapFF in group
	// Group. Added sinks take ids after the surviving sinks, in script order
	// (Remap.Added reports them).
	OpAdd = "add"
	// OpRemove deletes sink Sink; surviving sinks are renumbered densely
	// (Remap.OldToNew reports the mapping).
	OpRemove = "remove"
)

// Edit is one validated edit. Sink targets a sink of the instance the script
// is applied to (move/reload/remove); Loc, CapFF and Group carry the
// op-specific payload.
type Edit struct {
	Op    string
	Sink  int
	Loc   geom.Point
	CapFF float64
	Group int
}

// EditScript is a parsed, structurally valid edit script. Instance-dependent
// validation (sink ids in range, groups surviving) happens in Apply, which
// is where an instance first appears.
type EditScript struct {
	Name  string
	Edits []Edit
}

// Remap records how Apply renumbered sink identity: OldToNew[old] is the
// edited instance's id of the original sink old, or -1 when it was removed;
// Added lists the new ids of added sinks in script order. With no removals
// OldToNew is the identity and added sinks extend it densely.
type Remap struct {
	OldToNew []int
	Added    []int
}

// jsonEdit is the on-disk edit record. Optional fields are pointers so a
// missing field is distinguishable from an explicit zero: every op requires
// exactly its own payload fields, and a field the op would silently ignore
// is rejected like any other contradictory input.
type jsonEdit struct {
	Op    string   `json:"op"`
	Sink  *int     `json:"sink,omitempty"`
	X     *float64 `json:"x,omitempty"`
	Y     *float64 `json:"y,omitempty"`
	CapFF *float64 `json:"cap_ff,omitempty"`
	Group *int     `json:"group,omitempty"`
}

// jsonEditScript is the on-disk edit-script format.
type jsonEditScript struct {
	Name  string     `json:"name"`
	Edits []jsonEdit `json:"edits"`
}

// WriteEdits serializes an edit script as indented JSON.
func WriteEdits(w io.Writer, sc *EditScript) error {
	if err := checkScript(sc); err != nil {
		return err
	}
	js := jsonEditScript{Name: sc.Name, Edits: make([]jsonEdit, len(sc.Edits))}
	for i, e := range sc.Edits {
		je := jsonEdit{Op: e.Op}
		x, y, cap, sink, group := e.Loc.X, e.Loc.Y, e.CapFF, e.Sink, e.Group
		switch e.Op {
		case OpMove:
			je.Sink, je.X, je.Y = &sink, &x, &y
		case OpReload:
			je.Sink, je.CapFF = &sink, &cap
		case OpAdd:
			je.X, je.Y, je.CapFF, je.Group = &x, &y, &cap, &group
		case OpRemove:
			je.Sink = &sink
		}
		js.Edits[i] = je
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(js)
}

// ReadEdits parses and structurally validates an edit script: known ops
// only, each op carrying exactly its payload fields, finite coordinates and
// positive capacitances, non-negative sink ids, and at most one edit per
// targeted sink (a duplicate is almost certainly a script-generation bug,
// and order-dependent semantics would make dirty-set reasoning fragile).
// Whether a targeted sink exists is checked by Apply, against an instance.
// r must hold exactly one JSON object.
func ReadEdits(r io.Reader) (*EditScript, error) {
	var js jsonEditScript
	if err := decodeOne(r, &js); err != nil {
		return nil, err
	}
	if len(js.Edits) == 0 {
		return nil, fmt.Errorf("instio: edit script %q has no edits", js.Name)
	}
	sc := &EditScript{Name: js.Name, Edits: make([]Edit, len(js.Edits))}
	targeted := map[int]bool{}
	for i, je := range js.Edits {
		e := Edit{Op: je.Op}
		need := func(field string, ok bool) error {
			if !ok {
				return fmt.Errorf("instio: edit %d (%s) is missing %q", i, je.Op, field)
			}
			return nil
		}
		refuse := func(field string, present bool) error {
			if present {
				return fmt.Errorf("instio: edit %d (%s) does not take %q", i, je.Op, field)
			}
			return nil
		}
		var checks []error
		switch je.Op {
		case OpMove:
			checks = append(checks, need("sink", je.Sink != nil), need("x", je.X != nil), need("y", je.Y != nil),
				refuse("cap_ff", je.CapFF != nil), refuse("group", je.Group != nil))
		case OpReload:
			checks = append(checks, need("sink", je.Sink != nil), need("cap_ff", je.CapFF != nil),
				refuse("x", je.X != nil), refuse("y", je.Y != nil), refuse("group", je.Group != nil))
		case OpAdd:
			checks = append(checks, need("x", je.X != nil), need("y", je.Y != nil), need("cap_ff", je.CapFF != nil),
				need("group", je.Group != nil), refuse("sink", je.Sink != nil))
		case OpRemove:
			checks = append(checks, need("sink", je.Sink != nil), refuse("x", je.X != nil),
				refuse("y", je.Y != nil), refuse("cap_ff", je.CapFF != nil), refuse("group", je.Group != nil))
		default:
			return nil, fmt.Errorf("instio: edit %d has unknown op %q", i, je.Op)
		}
		for _, err := range checks {
			if err != nil {
				return nil, err
			}
		}
		if je.Sink != nil {
			e.Sink = *je.Sink
		}
		if je.X != nil {
			e.Loc.X = *je.X
		}
		if je.Y != nil {
			e.Loc.Y = *je.Y
		}
		if je.CapFF != nil {
			e.CapFF = *je.CapFF
		}
		if je.Group != nil {
			e.Group = *je.Group
		}
		sc.Edits[i] = e
	}
	if err := checkScript(sc); err != nil {
		return nil, err
	}
	for i, e := range sc.Edits {
		if e.Op != OpAdd {
			if targeted[e.Sink] {
				return nil, fmt.Errorf("instio: edit %d targets sink %d twice", i, e.Sink)
			}
			targeted[e.Sink] = true
		}
	}
	return sc, nil
}

// checkScript applies the instance-independent edit invariants, shared by
// the reader and the writer (a hand-built script must not serialize if the
// reader would refuse it back).
func checkScript(sc *EditScript) error {
	if len(sc.Edits) == 0 {
		return fmt.Errorf("instio: edit script %q has no edits", sc.Name)
	}
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	for i, e := range sc.Edits {
		switch e.Op {
		case OpMove, OpAdd:
			if bad(e.Loc.X) || bad(e.Loc.Y) {
				return fmt.Errorf("instio: edit %d (%s) has a non-finite location (%v, %v)", i, e.Op, e.Loc.X, e.Loc.Y)
			}
		case OpReload, OpRemove:
		default:
			return fmt.Errorf("instio: edit %d has unknown op %q", i, e.Op)
		}
		if e.Op == OpReload || e.Op == OpAdd {
			if bad(e.CapFF) || e.CapFF <= 0 {
				return fmt.Errorf("instio: edit %d (%s) has capacitance %v (want finite > 0)", i, e.Op, e.CapFF)
			}
		}
		if e.Op != OpAdd && e.Sink < 0 {
			return fmt.Errorf("instio: edit %d targets negative sink id %d", i, e.Sink)
		}
		if e.Op == OpAdd && e.Group < 0 {
			return fmt.Errorf("instio: edit %d adds into negative group %d", i, e.Group)
		}
	}
	return nil
}

// Apply validates the script against an instance and produces the edited
// instance plus the identity remap. The input is not mutated. Removed sinks
// leave a dense renumbering behind (ctree requires Sink.ID == index); an
// edit set that empties a group is rejected — the routing contract has no
// tree for a groupless instance, so such an ECO forces a full re-spec, not
// an incremental rebuild.
func (sc *EditScript) Apply(in *ctree.Instance) (*ctree.Instance, *Remap, error) {
	// An empty script is a valid no-op ECO (Apply then renumbers nothing);
	// a non-empty script must satisfy the structural invariants first.
	if len(sc.Edits) > 0 {
		if err := checkScript(sc); err != nil {
			return nil, nil, err
		}
	}
	n := len(in.Sinks)
	removed := make([]bool, n)
	targeted := make([]bool, n)
	adds := 0
	for i, e := range sc.Edits {
		if e.Op != OpAdd {
			if e.Sink < 0 || e.Sink >= n {
				return nil, nil, fmt.Errorf("instio: edit %d targets unknown sink %d (instance has %d)", i, e.Sink, n)
			}
			if targeted[e.Sink] {
				return nil, nil, fmt.Errorf("instio: edit %d targets sink %d twice", i, e.Sink)
			}
			targeted[e.Sink] = true
		}
		switch e.Op {
		case OpRemove:
			removed[e.Sink] = true
		case OpAdd:
			if e.Group < 0 || e.Group >= in.NumGroups {
				return nil, nil, fmt.Errorf("instio: edit %d adds into group %d (instance has %d)", i, e.Group, in.NumGroups)
			}
			adds++
		}
	}
	rm := &Remap{OldToNew: make([]int, n)}
	out := &ctree.Instance{
		Name:      in.Name,
		Source:    in.Source,
		NumGroups: in.NumGroups,
		Sinks:     make([]ctree.Sink, 0, n+adds),
	}
	if sc.Name != "" {
		out.Name = in.Name + "+" + sc.Name
	}
	for old := 0; old < n; old++ {
		if removed[old] {
			rm.OldToNew[old] = -1
			continue
		}
		s := in.Sinks[old]
		s.ID = len(out.Sinks)
		rm.OldToNew[old] = s.ID
		out.Sinks = append(out.Sinks, s)
	}
	// Moves and reloads patch the compacted copy: a sink an edit targets is
	// never also removed, since each sink is targeted at most once.
	for _, e := range sc.Edits {
		switch e.Op {
		case OpMove:
			out.Sinks[rm.OldToNew[e.Sink]].Loc = e.Loc
		case OpReload:
			out.Sinks[rm.OldToNew[e.Sink]].CapFF = e.CapFF
		case OpAdd:
			id := len(out.Sinks)
			rm.Added = append(rm.Added, id)
			out.Sinks = append(out.Sinks, ctree.Sink{ID: id, Loc: e.Loc, CapFF: e.CapFF, Group: e.Group})
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("instio: edited instance invalid: %w", err)
	}
	if err := checkFinite(out); err != nil {
		return nil, nil, err
	}
	return out, rm, nil
}

// LoadEdits reads an edit-script file.
func LoadEdits(path string) (*EditScript, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdits(f)
}

// SaveEdits writes an edit-script file.
func SaveEdits(path string, sc *EditScript) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdits(f, sc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Perturb fractions: how a generated ECO splits its edit budget across the
// four ops. Real ECOs are dominated by placement moves, with load changes a
// distant second and cell addition/deletion rare.
const (
	perturbMoveFrac   = 0.70
	perturbReloadFrac = 0.15
	perturbAddFrac    = 0.10
)

// Perturb generates a deterministic seeded edit script editing roughly
// frac·len(Sinks) sinks (at least one edit). The edits are spatially
// clustered — a focal sink is drawn at random and the edits target its
// nearest neighbors — because an engineering change order touches a block,
// not a uniform sample of the die: clustered edits are what leave most of a
// sharded routing's partition clean, which is the workload the incremental
// rebuild path exists for. The op mix is moves-dominated (see the perturb
// fractions above); moved and added sinks land within a die-scaled radius of
// the focal sink. The script is a pure function of (instance, frac, seed).
func Perturb(in *ctree.Instance, frac float64, seed int64) (*EditScript, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("instio: perturb fraction %v out of (0, 1]", frac)
	}
	n := len(in.Sinks)
	budget := int(frac * float64(n))
	if budget < 1 {
		budget = 1
	}
	rng := rand.New(rand.NewSource(seed))
	focal := in.Sinks[rng.Intn(n)].Loc

	moves := int(perturbMoveFrac * float64(budget))
	reloads := int(perturbReloadFrac * float64(budget))
	adds := int(perturbAddFrac * float64(budget))
	removes := budget - moves - reloads - adds
	if moves == 0 {
		moves, removes = 1, 0 // tiny budgets: a single move is the minimal ECO
	}
	// The edit neighborhood: the sinks nearest the focal point.
	targets := nearestSinks(in.Sinks, focal, moves+reloads+removes)
	// Never remove so much that a group could empty: cap removals at a
	// quarter of the neighborhood and drop them entirely on tiny instances.
	if removes > len(targets)/4 {
		removes = len(targets) / 4
	}

	// The displacement radius scales with the neighborhood, not the die:
	// edits stay inside the block they perturb.
	radius := 0.0
	for _, id := range targets {
		if d := geom.Dist(in.Sinks[id].Loc, focal); d > radius {
			radius = d
		}
	}
	if radius == 0 {
		radius = 1
	}
	jitter := func() geom.Point {
		return geom.Point{
			X: focal.X + (rng.Float64()*2-1)*radius,
			Y: focal.Y + (rng.Float64()*2-1)*radius,
		}
	}

	sc := &EditScript{Name: fmt.Sprintf("perturb-%g-%d", frac, seed)}
	i := 0
	for ; i < moves && i < len(targets); i++ {
		sc.Edits = append(sc.Edits, Edit{Op: OpMove, Sink: targets[i], Loc: jitter()})
	}
	for ; i < moves+reloads && i < len(targets); i++ {
		c := in.Sinks[targets[i]].CapFF
		sc.Edits = append(sc.Edits, Edit{Op: OpReload, Sink: targets[i], CapFF: c * (0.5 + rng.Float64())})
	}
	groupLeft := in.GroupSizes()
	for ; i < moves+reloads+removes && i < len(targets); i++ {
		// A removal that would empty its group invalidates the routing
		// contract outright (Apply rejects it); degrade it to a move.
		if g := in.Sinks[targets[i]].Group; groupLeft[g] > 1 {
			groupLeft[g]--
			sc.Edits = append(sc.Edits, Edit{Op: OpRemove, Sink: targets[i]})
		} else {
			sc.Edits = append(sc.Edits, Edit{Op: OpMove, Sink: targets[i], Loc: jitter()})
		}
	}
	for a := 0; a < adds; a++ {
		near := &in.Sinks[targets[rng.Intn(len(targets))]]
		sc.Edits = append(sc.Edits, Edit{Op: OpAdd, Loc: jitter(), CapFF: near.CapFF, Group: near.Group})
	}
	return sc, nil
}

// nearestSinks returns the m ≥ 1 sinks nearest p by Manhattan distance, ties
// toward the smaller id, nearest first: the first m of all sinks sorted by
// (distance, id), kept in a bounded max-heap instead of sorting every sink.
func nearestSinks(sinks []ctree.Sink, p geom.Point, m int) []int {
	type cand struct {
		d  float64
		id int
	}
	// after is the strict order: a ranks behind b.
	after := func(a, b cand) bool { return a.d > b.d || a.d == b.d && a.id > b.id }
	h := make([]cand, 0, m) // h[0] is the farthest sink kept
	for id := range sinks {
		c := cand{geom.Dist(sinks[id].Loc, p), id}
		if len(h) < m {
			h = append(h, c)
			for i := len(h) - 1; i > 0; {
				up := (i - 1) / 2
				if !after(h[i], h[up]) {
					break
				}
				h[i], h[up] = h[up], h[i]
				i = up
			}
			continue
		}
		if !after(h[0], c) {
			continue
		}
		h[0] = c
		for i := 0; ; {
			big := i
			for _, ch := range [2]int{2*i + 1, 2*i + 2} {
				if ch < m && after(h[ch], h[big]) {
					big = ch
				}
			}
			if big == i {
				break
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	slices.SortFunc(h, func(a, b cand) int {
		switch {
		case after(b, a):
			return -1
		case after(a, b):
			return 1
		}
		return 0
	})
	out := make([]int, len(h))
	for i, c := range h {
		out[i] = c.id
	}
	return out
}
