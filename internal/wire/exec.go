package wire

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctree"
)

// Execute runs a work unit: a private registry reconstructed from the
// unit's snapshot, then the core entry points its kind names. It is the one
// definition of a sub-build — the sharded pipeline's in-process runner and
// a routeworker both call it — so where a unit runs cannot change its
// result. In process, u.Opt may carry a context and a trace; the codec
// never ships either.
func Execute(u *WorkUnit) (*BuildResult, error) {
	reg, err := core.NewRegistryFromSnapshot(u.Registry)
	if err != nil {
		return nil, err
	}
	switch u.Kind {
	case KindBuild:
		sub, err := core.BuildSubtree(u.Sinks, u.NumGroups, u.Opt, reg)
		if err != nil {
			return nil, err
		}
		return &BuildResult{Root: sub.Root, Stats: sub.Stats, Registry: reg.Snapshot()}, nil
	case KindPatch:
		// The pilot patch pair: sample build, then the single-root stitch
		// that resolves a deferred root and so commits its offsets.
		sub, err := core.BuildSubtree(u.Sinks, u.NumGroups, u.Opt, reg)
		if err != nil {
			return nil, err
		}
		var st core.Stats
		st.AddRun(sub.Stats)
		top, err := core.MergeRoots([]*ctree.Node{sub.Root}, u.NumGroups, u.Source, u.Opt, reg)
		if err != nil {
			return nil, err
		}
		st.AddRun(top.Stats)
		return &BuildResult{Root: top.Root, Stats: st, Registry: reg.Snapshot()}, nil
	}
	return nil, fmt.Errorf("wire: unknown work kind %d", u.Kind)
}
