package shard

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
)

// TestTracedShardedBitwiseIdentical: tracing the sharded pipeline is purely
// observational — the traced grouped piloted build reproduces the untraced
// one exactly.
func TestTracedShardedBitwiseIdentical(t *testing.T) {
	in := bench.Intermingled(bench.Small(600, 21), 4, 77)
	opt := core.Options{IntraSkewBound: 0, Shards: 3, Pilot: true}
	plain, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Trace = obs.New("test")
	traced, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Wirelength != plain.Wirelength {
		t.Fatalf("traced wirelength %v != untraced %v", traced.Wirelength, plain.Wirelength)
	}
	if traced.Stats != plain.Stats {
		t.Fatalf("traced stats differ:\n%+v\n%+v", traced.Stats, plain.Stats)
	}
	if traced.Trace == nil || plain.Trace != nil {
		t.Fatalf("Result.Trace wiring: traced=%v plain=%v", traced.Trace, plain.Trace)
	}
}

// TestTraceAccountsForWallTime is the tentpole's acceptance scenario: on a
// grouped piloted 10k build (parallel merge wave forced on), the trace's
// top-level phases must account for ≥ 95% of the run's wall time across
// partition/pilot/shards/stitch, report a merge-wave idle fraction, and the
// per-shard child traces must carry their builds' spans and metrics.
func TestTraceAccountsForWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("10k sink build")
	}
	in := bench.Intermingled(bench.Small(10000, 9), 4, 9009)
	var tr *obs.Trace
	var res *Result
	var rep *eval.Report
	var err error
	// GOMAXPROCS 4 forces the wave on single-CPU CI hosts too. The whole
	// traced window runs inside it: setting GOMAXPROCS stops the world,
	// and no phase would own that pause.
	withGOMAXPROCS(4, func() {
		tr = obs.New("acceptance")
		res, err = Build(in, core.Options{IntraSkewBound: 0, Shards: 4, Pilot: true, Trace: tr})
		if err == nil {
			rep = eval.AnalyzeTraced(tr, res.Root, in, core.DefaultModel(), in.Source)
		}
		tr.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sinks != len(in.Sinks) {
		t.Fatalf("eval reached %d of %d sinks", rep.Sinks, len(in.Sinks))
	}

	s := tr.Summary()
	if s.WallMS <= 0 {
		t.Fatal("no wall time recorded")
	}
	if cov := s.CoveredMS / s.WallMS; cov < 0.95 {
		t.Fatalf("phases cover %.1f%% of wall time, want ≥ 95%% (%s)", 100*cov, tr.Report())
	}
	have := map[string]bool{}
	for _, p := range s.Phases {
		have[p.Name] = true
	}
	for _, want := range []string{"partition", "pilot", "shards", "stitch", "finalize", "embed", "eval"} {
		if !have[want] {
			t.Errorf("phase %q missing from summary: %+v", want, s.Phases)
		}
	}

	// Per-round merge-wave idle fraction: the wave ran inside the shard
	// builds' child traces; the summary aggregates over descendants.
	if s.MergeWave == nil {
		t.Fatal("merge-wave summary missing (GOMAXPROCS 4)")
	}
	if s.MergeWave.Rounds < 1 {
		t.Fatalf("no parallel rounds recorded: %+v", s.MergeWave)
	}
	if f := s.MergeWave.IdleFrac; f < 0 || f > 1 {
		t.Fatalf("idle fraction %v outside [0,1]", f)
	}

	// Child traces: pilot, one per shard, stitch — each shard child carrying
	// its build's metrics (per-shard attribution of the counter registry).
	children := map[string]*obs.Trace{}
	for _, c := range tr.Children() {
		children[c.Label()] = c
	}
	for _, want := range []string{"pilot", "shard0", "shard1", "shard2", "shard3", "stitch"} {
		if children[want] == nil {
			t.Fatalf("child trace %q missing (have %v)", want, tr.Children())
		}
	}
	var shardMerges int
	for i, si := range res.Shards {
		c := children["shard"+string(rune('0'+i))]
		v, ok := c.MetricValue("merges")
		if !ok || int(v) != si.Stats.Merges {
			t.Fatalf("shard %d merges metric = %v, %v; want %d", i, v, ok, si.Stats.Merges)
		}
		shardMerges += int(v)
	}
	if shardMerges == 0 {
		t.Fatal("no shard merges attributed")
	}
	if d := tr.Dropped(); d != 0 {
		t.Logf("note: parent trace dropped %d spans", d)
	}
}
