package core

import (
	"fmt"
	"math"

	"repro/internal/ctree"
)

// Registry is a shareable group-offset registry: the committed-offset view
// (the weighted union-find of the thesis's by-product skews) detached from
// any one builder, so several sub-instance builds can route against a common
// base. The sharded pipeline freezes one base Registry during its concurrent
// phase and hands each shard a private copy rebuilt from its Snapshot —
// sharing by frozen snapshot rather than by lock, which keeps the concurrent
// builds mutex-free and deterministic — then stitches on the base itself.
type Registry struct {
	uf groupUF
	// preUnions counts the prescribed-offset unions applied at construction
	// (reported once per run in Stats.GroupUnions, not once per shard).
	preUnions int
}

// NewRegistry returns a registry over the instance's groups with any
// prescribed Options.GroupOffsets pre-registered relative to group 0: every
// subsequent merge of related subtrees enforces the prescribed targets
// through the registry leash.
func NewRegistry(in *ctree.Instance, opt Options) (*Registry, error) {
	if err := normalizeOptions(in.NumGroups, &opt); err != nil {
		return nil, err
	}
	r := &Registry{uf: *newGroupUF(in.NumGroups)}
	if opt.GroupOffsets != nil {
		for g := 1; g < in.NumGroups; g++ {
			r.uf.union(0, g, opt.GroupOffsets[g])
			r.preUnions++
		}
	}
	return r, nil
}

// PreUnions reports the prescribed-offset unions applied at construction.
// Callers aggregating sub-build stats add it exactly once.
func (r *Registry) PreUnions() int { return r.preUnions }

// Groups returns the number of groups the registry was built over.
func (r *Registry) Groups() int { return len(r.uf.parent) }

// Offsets resolves the registry's committed inter-group offsets against
// group 0: entry g is the registered delay of group g's sinks minus group
// 0's, in ps — the explicit S_{0,g} form Options.GroupOffsets accepts, so
// offsets committed by one build can be prescribed verbatim to another
// (NewRegistry(in, Options{GroupOffsets: r.Offsets()}) round-trips). It
// errors when some group is not (transitively) related to group 0: the
// source build never committed that pair's offset, so no complete global
// contract exists yet (the sharded pipeline's pilot routes samples that
// hold every group, so it treats that as an error).
func (r *Registry) Offsets() ([]float64, error) {
	if len(r.uf.parent) == 0 {
		return nil, fmt.Errorf("core: Offsets over an empty registry")
	}
	root0, off0 := r.uf.find(0)
	out := make([]float64, len(r.uf.parent))
	for g := 1; g < len(out); g++ {
		rg, offg := r.uf.find(g)
		if rg != root0 {
			return nil, fmt.Errorf("core: groups %d and 0 are unrelated in the registry (no offset committed between them)", g)
		}
		// Normalized delays coincide under the leash: delay(g) − offg =
		// delay(0) − off0, so the registered inter-group skew S_{0,g} =
		// delay(g) − delay(0) = offg − off0.
		out[g] = offg - off0
	}
	return out, nil
}

// groupUF is a weighted union-find over sink groups recording, softly, the
// first-committed delay offset of every related group pair. The normalized
// delay of group g is its subtree delay minus its cumulative offset, so two
// related groups compare on a common scale.
type groupUF struct {
	parent []int
	off    []float64
}

func newGroupUF(n int) *groupUF {
	u := &groupUF{parent: make([]int, n), off: make([]float64, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// find returns g's union root and the cumulative offset of g relative to it.
// It deliberately does NOT compress paths: find is called from the merge-key
// closure, which the order queue's batch pairing evaluates from concurrent
// goroutines, and from the merge wave's workers, so it must not mutate.
// Chains stay short (one link per union, and group counts are small), so the
// walk is cheap.
func (u *groupUF) find(g int) (root int, off float64) {
	for u.parent[g] != g {
		off += u.off[g]
		g = u.parent[g]
	}
	return g, off
}

// union merges the root rb into ra such that a group with normalized delay
// nb under rb gets normalized delay nb − rel under ra.
func (u *groupUF) union(ra, rb int, rel float64) {
	u.parent[rb] = ra
	u.off[rb] = rel
}

// appendDistinctRoots appends the distinct union roots of the given groups
// to dst, linearly deduplicating (group counts are small, and a stack
// buffer beats a map on the hot paths that call this).
func (b *builder) appendDistinctRoots(dst []int, gs []int32) []int {
	for _, g := range gs {
		r, _ := b.uf.find(int(g))
		dup := false
		for _, have := range dst {
			if have == r {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, r)
		}
	}
	return dst
}

// resolve pins a deferred node and registers the group-offset commitments it
// makes with the soft registry.
func (b *builder) resolve(n *ctree.Node, e float64) {
	if n.Def == nil {
		return
	}
	n.Resolve(b.opt.Model, e)
	b.registerOffsets(n)
}

// registerOffsets records, for a just-committed node spanning several
// groups, the first-seen relative offsets between previously unrelated
// groups (thesis Ch. V.E.1: the involved groups form a new merged group).
func (b *builder) registerOffsets(n *ctree.Node) {
	var haveFirst bool
	var firstRoot int
	var firstNorm float64
	for i := 0; i < n.Delay.Len(); i++ { // ascending group: keeps runs deterministic
		g, iv := n.Delay.At(i)
		r, off := b.uf.find(g)
		norm := mid(iv.Lo, iv.Hi) - off
		if !haveFirst {
			haveFirst, firstRoot, firstNorm = true, r, norm
			continue
		}
		if r == firstRoot {
			continue
		}
		b.uf.union(firstRoot, r, norm-firstNorm)
		b.stats.GroupUnions++
	}
}

// united reports whether every group of this build's initial nodes shares
// one union root. From then on no merge of the build can register a union
// (registerOffsets unites distinct roots only), so the registry is frozen for
// the rest of the build and the merge wave may read it from many workers.
// Single-group and prescribed-offset builds are united from the start.
func (b *builder) united() bool {
	r0, _ := b.uf.find(int(b.groups[0]))
	for _, g := range b.groups[1:] {
		if r, _ := b.uf.find(int(g)); r != r0 {
			return false
		}
	}
	return true
}

// relatedRoots reports whether the registry relates any group of na to any
// group of nb. It is called from the merge key, i.e. from concurrent pairing
// goroutines, so it only reads the registry.
func (b *builder) relatedRoots(na, nb *ctree.Node) bool {
	var buf [16]int
	roots := b.appendDistinctRoots(buf[:0], na.Groups())
	for _, g := range nb.Groups() {
		r, _ := b.uf.find(int(g))
		for _, have := range roots {
			if have == r {
				return true
			}
		}
	}
	return false
}

// RegistrySnapshot is a Registry's committed state in an exportable,
// serializable form: the weighted union-find's parent links and cumulative
// offsets, plus the construction-time prescribed-union count. It is the
// registry's form in the wire format's work units (internal/wire): the
// sharded pipeline freezes a base registry and puts its snapshot inside
// every work unit, and each execution, in process or on a worker,
// reconstructs an equivalent private registry with NewRegistryFromSnapshot.
// Offsets are copied verbatim, never recomputed, so every reconstruction
// routes bitwise-identical trees.
type RegistrySnapshot struct {
	Parent    []int
	Off       []float64
	PreUnions int
}

// Snapshot exports the registry's committed state. The result shares no
// storage with the registry; later commits do not show through.
func (r *Registry) Snapshot() RegistrySnapshot {
	return RegistrySnapshot{
		Parent:    append([]int(nil), r.uf.parent...),
		Off:       append([]float64(nil), r.uf.off...),
		PreUnions: r.preUnions,
	}
}

// NewRegistryFromSnapshot reconstructs a registry from a snapshot,
// validating it defensively (snapshots may arrive over the network): the
// offsets must be finite, and the parent links must stay in range and form
// a forest — a cycle would hang every registry lookup, so it is rejected
// here rather than trusted.
func NewRegistryFromSnapshot(s RegistrySnapshot) (*Registry, error) {
	n := len(s.Parent)
	if n == 0 {
		return nil, fmt.Errorf("core: registry snapshot with no groups")
	}
	if len(s.Off) != n {
		return nil, fmt.Errorf("core: registry snapshot with %d parents but %d offsets", n, len(s.Off))
	}
	if s.PreUnions < 0 || s.PreUnions > n {
		return nil, fmt.Errorf("core: registry snapshot with %d prescribed unions over %d groups", s.PreUnions, n)
	}
	for g, p := range s.Parent {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("core: registry snapshot parent[%d] = %d out of range", g, p)
		}
		if v := s.Off[g]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: registry snapshot offset[%d] = %v is not finite", g, v)
		}
	}
	for g := range s.Parent {
		// Walk to the root with a step budget: any walk longer than n links
		// revisits a node, i.e. the links contain a cycle.
		cur := g
		for steps := 0; s.Parent[cur] != cur; steps++ {
			if steps >= n {
				return nil, fmt.Errorf("core: registry snapshot parent links contain a cycle through group %d", g)
			}
			cur = s.Parent[cur]
		}
	}
	r := &Registry{preUnions: s.PreUnions}
	r.uf.parent = append([]int(nil), s.Parent...)
	r.uf.off = append([]float64(nil), s.Off...)
	return r, nil
}
