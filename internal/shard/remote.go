package shard

import (
	"context"
	"runtime/pprof"
	"strconv"

	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Sub-build dispatch. Every sub-build of the pipeline — a pilot patch route
// or a shard build — is an internal/wire work unit (the sinks it routes +
// frozen registry snapshot + options), and wire.Execute is its one
// definition. In
// process, a phase's runner executes the unit directly. When
// dispatch.Options.Remote carries a worker pool, the runner is a
// dispatch.RemoteRunner instead: the same unit is encoded, shipped to a
// routeworker over HTTP, and its wire.BuildResult decoded back, with the
// in-process runner attached as the degradation path — with no healthy
// worker the build completes locally and Result.Dispatch reports the
// fallbacks. Determinism makes the transport invisible: a sub-build is a
// pure function of its unit, so a remote result is bitwise the local one.
//
// Observation never travels: the codec skips Trace and Ctx, so worker
// builds run untraced and the per-task child traces record only locally
// executed (fallback) attempts.

// subBuilds is one dispatched phase over the instance in: task t executes
// unit over sinks[t], pointers into in, and decodes a remote result against
// in.
type subBuilds struct {
	phase string // the dispatch phase, "pilot" or "shard"
	in    *ctree.Instance
	unit  wire.WorkUnit // every task's unit but its Sinks
	sinks [][]*ctree.Sink
	// traces[t] is task t's child trace (nil when untraced). Only the first
	// attempt records into it: a trace node is single-goroutine and a retry
	// or hedge may race the attempt it replaces, so under faults a child
	// trace shows the failed attempt while the result comes from the winner.
	traces []*obs.Trace
	// shards[t] is task t's shard index, the pprof label its in-process
	// execution runs under so -cpuprofile samples attribute to shards; nil
	// in the pilot.
	shards []int
}

// run executes every task through the dispatch coordinator (tr records its
// events) and returns the results in task order.
func (s *subBuilds) run(ctx context.Context, dopt dispatch.Options, tr *obs.Trace) ([]*wire.BuildResult, dispatch.Report, error) {
	var runner dispatch.Runner = dispatch.RunnerFunc(s.execute)
	if dopt.Remote != nil {
		rr, err := dopt.Remote.Runner(dispatch.RemoteConfig{
			Phase: s.phase,
			Encode: func(t dispatch.Task) ([]byte, error) {
				u := s.unit
				u.Sinks = s.sinks[t.Index]
				return u.Encode()
			},
			Decode: func(data []byte) (any, error) { return wire.DecodeResult(data, s.in) },
			Local:  runner,
			Faults: dopt.Faults,
		})
		if err != nil {
			return nil, dispatch.Report{}, err
		}
		runner = rr
	}
	dopt.Phase = s.phase
	dopt.Trace = tr
	outs, rep, err := dispatch.Run(ctx, len(s.sinks), runner, dopt)
	for _, t := range s.traces {
		t.Close()
	}
	if err != nil {
		return nil, rep, err
	}
	brs := make([]*wire.BuildResult, len(outs))
	for i, o := range outs {
		brs[i] = o.(*wire.BuildResult)
	}
	return brs, rep, nil
}

// execute is the in-process runner: wire.Execute on the task's unit under
// the attempt's context.
func (s *subBuilds) execute(ctx context.Context, t dispatch.Task) (any, error) {
	u := s.unit
	u.Sinks = s.sinks[t.Index]
	u.Opt.Ctx = ctx
	u.Opt.Trace = nil
	if t.Attempt == 0 {
		u.Opt.Trace = s.traces[t.Index]
	}
	var br *wire.BuildResult
	var err error
	if s.shards == nil {
		br, err = wire.Execute(&u)
	} else {
		pprof.Do(ctx, pprof.Labels("shard", strconv.Itoa(s.shards[t.Index])), func(context.Context) {
			br, err = wire.Execute(&u)
		})
	}
	if err != nil {
		return nil, err
	}
	return br, nil
}
