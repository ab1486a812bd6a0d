package wire

import "repro/internal/core"

// Execute runs a work unit: core.BuildSubtree over its sinks against a
// private registry reconstructed from the unit's snapshot. It is the one
// definition of a sub-build — the sharded pipeline's in-process runner and
// a routeworker both call it — so where a unit runs cannot change its
// result. In process, u.Opt may carry a context and a trace; the codec
// never ships either.
func Execute(u *WorkUnit) (*BuildResult, error) {
	reg, err := core.NewRegistryFromSnapshot(u.Registry)
	if err != nil {
		return nil, err
	}
	sub, err := core.BuildSubtree(u.Sinks, u.NumGroups, u.Opt, reg)
	if err != nil {
		return nil, err
	}
	return &BuildResult{Root: sub.Root, Stats: sub.Stats, Registry: reg.Snapshot()}, nil
}
