package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// TestTracedBuildBitwiseIdentical: tracing is purely observational — a
// traced build (serial and parallel) reproduces the untraced build exactly.
func TestTracedBuildBitwiseIdentical(t *testing.T) {
	in := bench.Intermingled(bench.Small(400, 3), 4, 11)
	for _, procs := range []int{1, 4} {
		plain := buildAt(t, procs, in, Options{IntraSkewBound: 0})
		traced := buildAt(t, procs, in, Options{IntraSkewBound: 0, Trace: obs.New("test")})
		if traced.Wirelength != plain.Wirelength {
			t.Fatalf("GOMAXPROCS=%d: traced wirelength %v != untraced %v", procs, traced.Wirelength, plain.Wirelength)
		}
		if traced.Stats != plain.Stats {
			t.Fatalf("GOMAXPROCS=%d: traced stats %+v != untraced %+v", procs, traced.Stats, plain.Stats)
		}
		sameTree(t, "traced@", plain.Root, traced.Root)
	}
}

// TestTracedBuildRecordsPhasesAndMetrics: a traced Build records the route
// and embed spans, exports every Stats field as a metric, and — with the
// parallel wave forced on — the per-round merge-wave accounting.
func TestTracedBuildRecordsPhasesAndMetrics(t *testing.T) {
	in := bench.Intermingled(bench.Small(600, 5), 4, 13)
	tr := obs.New("test")
	res := buildAt(t, 4, in, Options{Trace: tr})
	tr.Close()

	s := tr.Summary()
	names := map[string]bool{}
	for _, p := range s.Phases {
		names[p.Name] = true
	}
	if !names["route"] || !names["embed"] {
		t.Fatalf("top-level phases missing route/embed: %+v", s.Phases)
	}

	// Stats export by reflection: spot-check scalar and nested names.
	if v, ok := tr.MetricValue("merges"); !ok || int(v) != res.Stats.Merges {
		t.Fatalf("merges metric = %v, %v; want %d", v, ok, res.Stats.Merges)
	}
	if v, ok := tr.MetricValue("pair_scans"); !ok || int64(v) != res.Stats.PairScans {
		t.Fatalf("pair_scans metric = %v, %v; want %d", v, ok, res.Stats.PairScans)
	}
	if _, ok := tr.MetricValue("grid_rebuilds_live_drop"); !ok {
		t.Fatal("nested GridRebuilds fields not exported")
	}
	if _, ok := tr.MetricValue("sneak_iters"); !ok {
		t.Fatal("sneak_iters not exported")
	}
	if _, ok := tr.MetricValue(obs.MetricPairingNS); !ok {
		t.Fatal("pairing_ns not recorded")
	}

	// Merge-wave accounting (GOMAXPROCS 4 with 600 sinks guarantees
	// batches above minParallelBatch).
	if s.MergeWave == nil {
		t.Fatal("merge-wave summary missing on a GOMAXPROCS 4 build")
	}
	if s.MergeWave.Rounds < 1 || s.MergeWave.BatchMax < minParallelBatch {
		t.Fatalf("wave summary implausible: %+v", s.MergeWave)
	}
	if f := s.MergeWave.IdleFrac; f < 0 || f > 1 {
		t.Fatalf("idle fraction %v outside [0,1]", f)
	}
}
