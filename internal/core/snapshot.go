package core

import (
	"fmt"
	"math"
)

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
