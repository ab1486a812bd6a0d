// Command sweep produces data for the evaluation's parameter studies:
//
//	sweep -mode bound      # bounded-skew wirelength vs skew bound (Fig. 1 curve)
//	sweep -mode groups     # AST-DME vs EXT-BST vs #groups, both groupings
//	sweep -mode difficulty # AST-DME gain vs degree of intermingling (Blend)
//	sweep -mode offsetfloat# wire/skew trade-off of the InterSkewBound knob
//	sweep -mode scale      # sinks vs CPU seconds vs wirelength, JSON series
//	sweep -mode eco        # incremental (ECO) rebuild vs from-scratch, JSON series
//
// The eco mode measures the incremental rerouting path longitudinally: for
// every sink count (-sizes), placement (-dist), shard count (-shardcounts)
// and edit fraction (-editfracs) it runs a retained piloted build, generates
// the deterministic seeded edit script (instio.Perturb, the same script
// instancegen -perturb would emit), rebuilds incrementally, then routes the
// edited instance from scratch on the same configuration — emitting the
// wall-clock speedup, dirty/reused shard counts and the eval-backed quality
// deltas (wire ratio, seam skew) as a JSON series for BENCH_eco.json.
// -groups k (default 4) shapes the instances; provenance and dispatch
// blocks ride along exactly as in the scale mode.
//
// The table modes accept -circuit (r1..r5, default r1) and write CSV to
// stdout. The scale mode routes zero-skew instances of increasing size
// (-sizes, -dist, -pairer, -shards; or -suite for the full LargeSuite,
// uniform and power-law) and emits a JSON series suitable for tracking the
// scaling trajectory in BENCH_*.json files across PRs — -out writes it to a
// file directly (e.g. -out BENCH_scale.json as a CI artifact). -groups k
// additionally routes an intermingled k-group AST-DME variant of every
// instance (optionally piloted with -pilot), appending points that carry
// the grouped sharded quality metrics — intra-group skew, residual seam
// skew, pilot cost — to the same series, so the artifact tracks them
// longitudinally. Every point carries run provenance (git SHA, GOMAXPROCS,
// CPU model, Go version, timestamp); -trace f.json additionally records a
// phase trace of every measured point (partition/pilot/shards/stitch/eval,
// merge-wave idle fraction) and embeds each point's phase summary in the
// series. Flags that the selected mode would ignore are rejected.
// All modes accept -cpuprofile/-memprofile for pprof output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/profutil"
	"repro/internal/shard"
)

// scalePoint is one measurement of the -mode scale series.
type scalePoint struct {
	Sinks      int     `json:"sinks"`
	Dist       string  `json:"dist"`
	Pairer     string  `json:"pairer"`
	Shards     int     `json:"shards"`
	CPUSeconds float64 `json:"cpu_seconds"`
	Wirelength float64 `json:"wirelength"`
	PairScans  int64   `json:"pair_scans"`
	SkewPs     float64 `json:"skew_ps"`
	// Spatial-index rebuild counts by trigger (zero under the scan pairer).
	GridRebuilds     int `json:"grid_rebuilds"`
	RebuildsLiveDrop int `json:"rebuilds_live_drop"`
	RebuildsClamp    int `json:"rebuilds_edge_clamp"`
	RebuildsScanRate int `json:"rebuilds_scan_rate"`
	RebuildsCellWalk int `json:"rebuilds_cell_walk"`
	// Grouped-variant fields (-groups): the AST-DME run's group count, the
	// measured intra-group skew, the residual intra-group skew across shard
	// seams (the sharded-quality metric the pilot pass drives to zero), and
	// the pilot pass's cost. All zero on single-group points.
	Groups      int     `json:"groups,omitempty"`
	Pilot       bool    `json:"pilot,omitempty"`
	GroupSkewPs float64 `json:"group_skew_ps,omitempty"`
	SeamSkewPs  float64 `json:"seam_skew_ps,omitempty"`
	PilotSinks  int     `json:"pilot_sinks,omitempty"`
	PilotScans  int64   `json:"pilot_scans,omitempty"`
	// Provenance identifies the build and machine behind the measurement
	// (git SHA, GOMAXPROCS, CPU model, Go version, timestamp) — without it
	// the longitudinal trajectory is uninterpretable. Always set.
	Provenance *obs.Provenance `json:"provenance"`
	// Phases is the point's per-phase time attribution (-trace only).
	Phases *obs.Summary `json:"phases,omitempty"`
	// Dispatch surfaces the build's fault-handling counters (retries,
	// hedges, contained panics, remote fallbacks, workers lost); omitted
	// when the build dispatched undisturbed.
	Dispatch *dispatchPoint `json:"dispatch,omitempty"`
}

// dispatchPoint is a scalePoint's view of dispatch.Report: what fault
// tolerance cost the measured build.
type dispatchPoint struct {
	Retries         int `json:"retries,omitempty"`
	Hedges          int `json:"hedges,omitempty"`
	PanicsRecovered int `json:"panics_recovered,omitempty"`
	FaultsInjected  int `json:"faults_injected,omitempty"`
	RemoteFallbacks int `json:"remote_fallbacks,omitempty"`
	WorkersLost     int `json:"workers_lost,omitempty"`
}

// ecoPoint is one measurement of the -mode eco series: a retained build, an
// incremental rebuild of a seeded edit script, and the from-scratch build of
// the same edited instance it competes against.
type ecoPoint struct {
	Sinks    int     `json:"sinks"`
	Dist     string  `json:"dist"`
	Shards   int     `json:"shards"`
	Groups   int     `json:"groups"`
	Pilot    bool    `json:"pilot"`
	EditFrac float64 `json:"edit_frac"`
	Edits    int     `json:"edits"`
	// DirtyShards/ReusedShards pin how much of the cached contract the edit
	// script invalidated; the speedup story stands on reuse.
	DirtyShards  int `json:"dirty_shards"`
	ReusedShards int `json:"reused_shards"`
	// FullSeconds is the retained from-scratch build that produced the
	// cache; EcoSeconds the incremental rebuild; ScratchSeconds the
	// from-scratch sharded build of the edited instance — the run the
	// rebuild replaces. Speedup = ScratchSeconds / EcoSeconds.
	FullSeconds    float64 `json:"full_seconds"`
	EcoSeconds     float64 `json:"eco_seconds"`
	ScratchSeconds float64 `json:"scratch_seconds"`
	Speedup        float64 `json:"speedup"`
	// Quality of the incremental result against the from-scratch build of
	// the same edited instance: total wire ratio (eco/scratch) and the
	// grouped seam residuals of both.
	Wirelength        float64         `json:"wirelength"`
	WireRatio         float64         `json:"wire_ratio"`
	SeamSkewPs        float64         `json:"seam_skew_ps"`
	ScratchSeamSkewPs float64         `json:"scratch_seam_skew_ps"`
	GroupSkewPs       float64         `json:"group_skew_ps"`
	Provenance        *obs.Provenance `json:"provenance"`
	// Dispatch covers the incremental rebuild's dispatched shard builds.
	Dispatch *dispatchPoint `json:"dispatch,omitempty"`
}

// scaleInstance is one (instance, placement label) pair of the scale series.
type scaleInstance struct {
	in   *ctree.Instance
	dist string
}

func runScale(out io.Writer, sizes string, dist string, pairers string, seed int64, suite bool, shards, groups int, pilot bool, workers string, tracePath string, timeout time.Duration) {
	// -workers ships shard and pilot builds to routeworkers; a fleet that
	// cannot take a task degrades to in-process execution, which the
	// series' dispatch fields record.
	var dopt dispatch.Options
	if workers != "" {
		pool, err := dispatch.NewWorkerPool(strings.Split(workers, ","), dispatch.PoolOptions{})
		if err != nil {
			fatal(err)
		}
		defer pool.Close()
		dopt.Remote = pool
	}
	var insts []scaleInstance
	if suite {
		// The longitudinal series: every LargeSuite circuit, uniform and
		// power-law, under its spec-pinned seed.
		for _, sp := range bench.LargeSuite() {
			d := sp.Dist
			if d == "" {
				d = "uniform"
			}
			insts = append(insts, scaleInstance{in: bench.Generate(sp), dist: d})
		}
	} else {
		for _, f := range strings.Split(sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 2 {
				fatal(fmt.Errorf("bad -sizes entry %q", f))
			}
			var in *ctree.Instance
			switch dist {
			case "uniform":
				in = bench.Small(n, seed)
			case "powerlaw":
				in = bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, seed)
			default:
				fatal(fmt.Errorf("bad -dist %q (want uniform | powerlaw)", dist))
			}
			insts = append(insts, scaleInstance{in: in, dist: dist})
		}
	}
	modes := map[string]core.PairerMode{
		"auto": core.PairerAuto, "scan": core.PairerScan, "grid": core.PairerGrid,
	}
	var runs []string
	if pairers == "both" {
		runs = []string{"scan", "grid"}
	} else {
		if _, ok := modes[pairers]; !ok {
			fatal(fmt.Errorf("bad -pairer %q (want auto | scan | grid | both)", pairers))
		}
		runs = []string{pairers}
	}
	// One trace root for the whole sweep when -trace is set: each measured
	// point records into its own child, so the trace file mirrors the series
	// point for point. Provenance is collected once — it is per-process.
	prov := obs.CollectProvenance()
	var root *obs.Trace
	if tracePath != "" {
		root = obs.New("sweep-scale")
		root.SetProvenance(prov)
	}

	// measure routes one configuration and appends its scalePoint: the
	// single code path constructing points keeps the single-group series and
	// the grouped variant's fields in lockstep.
	var series []scalePoint
	measure := func(in *ctree.Instance, dist, pm string, opt core.Options) {
		var tr *obs.Trace
		if root != nil {
			label := fmt.Sprintf("n=%d dist=%s pairer=%s shards=%d", len(in.Sinks), dist, pm, opt.Shards)
			if !opt.SingleGroup {
				label += fmt.Sprintf(" groups=%d pilot=%v", in.NumGroups, opt.Pilot)
			}
			tr = root.Child(label)
			opt.Trace = tr
		}
		// -timeout budgets each measured build independently: a point that
		// blows the budget aborts the sweep with a diagnosis naming it,
		// rather than hanging the series.
		if timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			opt.Ctx = ctx
		}
		start := time.Now()
		res, err := shard.BuildDispatch(in, opt, dopt)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fatal(fmt.Errorf("scale: n=%d pairer=%s shards=%d build cancelled after %s (-timeout)", len(in.Sinks), pm, opt.Shards, timeout))
			}
			fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		rep := eval.AnalyzeTraced(tr, res.Root, in, core.DefaultModel(), in.Source)
		tr.Close()
		rb := res.Stats.GridRebuilds
		pt := scalePoint{
			Sinks: len(in.Sinks), Dist: dist, Pairer: pm, Shards: opt.Shards,
			CPUSeconds: elapsed, Wirelength: res.Wirelength,
			PairScans: res.Stats.PairScans, SkewPs: rep.GlobalSkew,
			GridRebuilds: rb.Total(), RebuildsLiveDrop: rb.LiveDrop,
			RebuildsClamp: rb.EdgeClamp, RebuildsScanRate: rb.ScanRate,
			RebuildsCellWalk: rb.CellWalk,
			Provenance:       prov,
			Phases:           tr.Summary(), // nil when untraced
		}
		if !opt.SingleGroup {
			pt.Groups, pt.Pilot = in.NumGroups, opt.Pilot
			pt.GroupSkewPs = rep.MaxGroupSkew
			if len(res.Parts) > 1 {
				_, pt.SeamSkewPs = eval.SeamSkew(rep, in, res.Parts)
			}
			pt.PilotSinks, pt.PilotScans = res.PilotSinks, res.PilotStats.PairScans
		}
		if d := res.Dispatch; d.Retries+d.Hedges+d.PanicsRecovered+d.FaultsInjected+d.RemoteFallbacks+d.WorkersLost > 0 {
			pt.Dispatch = &dispatchPoint{
				Retries: d.Retries, Hedges: d.Hedges,
				PanicsRecovered: d.PanicsRecovered, FaultsInjected: d.FaultsInjected,
				RemoteFallbacks: d.RemoteFallbacks, WorkersLost: d.WorkersLost,
			}
		}
		series = append(series, pt)
		fmt.Fprintf(os.Stderr, "scale: n=%d dist=%s pairer=%s shards=%d groups=%d pilot=%v %.2fs wire=%.0f scans=%d rebuilds=%d/%d/%d/%d seam=%.3f pilot_sinks=%d\n",
			len(in.Sinks), dist, pm, opt.Shards, pt.Groups, pt.Pilot, elapsed, res.Wirelength,
			res.Stats.PairScans, rb.LiveDrop, rb.EdgeClamp, rb.ScanRate, rb.CellWalk,
			pt.SeamSkewPs, pt.PilotSinks)
	}
	for _, si := range insts {
		for _, pm := range runs {
			measure(si.in, si.dist, pm, core.Options{
				SingleGroup: true, Pairer: modes[pm], Shards: shards,
			})
			if groups > 1 {
				// The grouped variant: the same circuit under an intermingled
				// k-group structure, routed zero-bound AST-DME with the same
				// pairer/shard configuration (optionally piloted), so the
				// longitudinal artifact tracks grouped sharded quality — seam
				// skew and pilot cost — next to the single-group series.
				gin := bench.Intermingled(si.in, groups, seed*1000+int64(groups))
				measure(gin, si.dist, pm, core.Options{
					Pairer: modes[pm], Shards: shards, Pilot: pilot,
				})
			}
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(series); err != nil {
		fatal(err)
	}
	if root != nil {
		root.Close()
		if err := obs.WriteJSONFile(tracePath, root); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "scale: trace written to %s\n", tracePath)
	}
}

// runEco measures the incremental rebuild path against from-scratch builds;
// see the package comment. Each (size, dist, shards, frac) point runs three
// routings: the retained build (cache producer), the incremental rebuild of
// the seeded edit script, and the from-scratch sharded build of the edited
// instance the rebuild is supposed to replace.
func runEco(out io.Writer, sizes, dist, editfracs, shardcounts string, groups int, seed int64, timeout time.Duration) {
	var dists []string
	switch dist {
	case "uniform", "powerlaw":
		dists = []string{dist}
	case "both":
		dists = []string{"uniform", "powerlaw"}
	default:
		fatal(fmt.Errorf("bad -dist %q (want uniform | powerlaw | both)", dist))
	}
	var fracs []float64
	for _, f := range strings.Split(editfracs, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v > 1 {
			fatal(fmt.Errorf("bad -editfracs entry %q (want fractions in (0, 1])", f))
		}
		fracs = append(fracs, v)
	}
	var counts []int
	for _, f := range strings.Split(shardcounts, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < 1 {
			fatal(fmt.Errorf("bad -shardcounts entry %q", f))
		}
		counts = append(counts, k)
	}
	// -timeout budgets each routing independently, as in the scale mode.
	budget := func(opt *core.Options) context.CancelFunc {
		if timeout <= 0 {
			return func() {}
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		opt.Ctx = ctx
		return cancel
	}
	prov := obs.CollectProvenance()
	var series []ecoPoint
	for _, d := range dists {
		for _, f := range strings.Split(sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 2 {
				fatal(fmt.Errorf("bad -sizes entry %q", f))
			}
			var in *ctree.Instance
			if d == "uniform" {
				in = bench.Small(n, seed)
			} else {
				in = bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, seed)
			}
			if groups > 1 {
				in = bench.Intermingled(in, groups, seed*1000+int64(groups))
			}
			for _, k := range counts {
				opt := core.Options{Shards: k}
				if groups > 1 {
					opt.Pilot = true // the cached-contract config the rebuild preserves
				} else {
					opt.SingleGroup = true
				}
				fullOpt := opt
				cancel := budget(&fullOpt)
				start := time.Now()
				full, err := shard.BuildEco(in, fullOpt, dispatch.Options{})
				cancel()
				if err != nil {
					fatal(ecoFailure("retained build", n, d, k, err, timeout))
				}
				tFull := time.Since(start).Seconds()
				for _, frac := range fracs {
					sc, err := instio.Perturb(in, frac, seed)
					if err != nil {
						fatal(err)
					}
					var ropt shard.RebuildOptions
					rcancel := func() {}
					if timeout > 0 {
						var ctx context.Context
						ctx, rcancel = context.WithTimeout(context.Background(), timeout)
						ropt.Ctx = ctx
					}
					start = time.Now()
					res, err := full.Eco.RebuildDispatch(sc, ropt, dispatch.Options{})
					rcancel()
					if err != nil {
						fatal(ecoFailure(fmt.Sprintf("rebuild frac=%g", frac), n, d, k, err, timeout))
					}
					tEco := time.Since(start).Seconds()
					edited := res.Instance
					scratchOpt := opt
					scancel := budget(&scratchOpt)
					start = time.Now()
					scratch, err := shard.BuildDispatch(edited, scratchOpt, dispatch.Options{})
					scancel()
					if err != nil {
						fatal(ecoFailure(fmt.Sprintf("scratch frac=%g", frac), n, d, k, err, timeout))
					}
					tScratch := time.Since(start).Seconds()
					rep := eval.Analyze(res.Root, edited, core.DefaultModel(), edited.Source)
					pt := ecoPoint{
						Sinks: n, Dist: d, Shards: k, Groups: in.NumGroups, Pilot: opt.Pilot,
						EditFrac: frac, Edits: len(sc.Edits),
						DirtyShards: len(res.EcoRebuilt), ReusedShards: res.EcoReused,
						FullSeconds: tFull, EcoSeconds: tEco, ScratchSeconds: tScratch,
						Speedup:    tScratch / tEco,
						Wirelength: res.Wirelength,
						WireRatio:  res.Wirelength / scratch.Wirelength,
						Provenance: prov,
					}
					if groups > 1 && len(res.Parts) > 1 {
						pt.GroupSkewPs = rep.MaxGroupSkew
						_, pt.SeamSkewPs = eval.SeamSkew(rep, edited, res.Parts)
						srep := eval.Analyze(scratch.Root, edited, core.DefaultModel(), edited.Source)
						_, pt.ScratchSeamSkewPs = eval.SeamSkew(srep, edited, scratch.Parts)
					}
					if dr := res.Dispatch; dr.Retries+dr.Hedges+dr.PanicsRecovered+dr.FaultsInjected+dr.RemoteFallbacks+dr.WorkersLost > 0 {
						pt.Dispatch = &dispatchPoint{
							Retries: dr.Retries, Hedges: dr.Hedges,
							PanicsRecovered: dr.PanicsRecovered, FaultsInjected: dr.FaultsInjected,
							RemoteFallbacks: dr.RemoteFallbacks, WorkersLost: dr.WorkersLost,
						}
					}
					series = append(series, pt)
					fmt.Fprintf(os.Stderr, "eco: n=%d dist=%s shards=%d frac=%g edits=%d dirty=%d/%d full=%.2fs eco=%.3fs scratch=%.2fs speedup=%.1fx wire_ratio=%.4f seam=%.3g\n",
						n, d, k, frac, pt.Edits, pt.DirtyShards, k, tFull, tEco, tScratch, pt.Speedup, pt.WireRatio, pt.SeamSkewPs)
				}
			}
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(series); err != nil {
		fatal(err)
	}
}

// ecoFailure labels a failed eco-mode routing with its configuration, and
// maps deadline cancellations onto the flag that armed them.
func ecoFailure(stage string, n int, dist string, shards int, err error, timeout time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("eco: n=%d dist=%s shards=%d: %s cancelled after %s (-timeout)", n, dist, shards, stage, timeout)
	}
	return fmt.Errorf("eco: n=%d dist=%s shards=%d: %s: %w", n, dist, shards, stage, err)
}

func main() {
	var (
		mode       = flag.String("mode", "groups", "bound | groups | difficulty | offsetfloat | scale | eco")
		circuit    = flag.String("circuit", "r1", "table modes: suite circuit (r1..r5)")
		sizes      = flag.String("sizes", "1000,2000,5000,10000", "scale mode: comma-separated sink counts")
		dist       = flag.String("dist", "uniform", "scale mode: sink placement (uniform | powerlaw)")
		pairer     = flag.String("pairer", "grid", "scale mode: pairing engine (auto | scan | grid | both)")
		seed       = flag.Int64("seed", 9, "scale mode: instance seed")
		suite      = flag.Bool("suite", false, "scale mode: run the LargeSuite circuits (uniform + powerlaw) instead of -sizes/-dist")
		shards     = flag.Int("shards", 0, "scale mode: spatial shards routed concurrently and stitched (0 = off)")
		groups     = flag.Int("groups", 0, "scale mode: also route an intermingled k-group AST-DME variant of every instance, reporting group/seam skew (0 = off)")
		pilot      = flag.Bool("pilot", false, "scale mode: run the grouped variant with the pilot offset pass (requires -groups and -shards)")
		workers    = flag.String("workers", "", "scale mode: comma-separated routeworker addresses (host:port) to ship shard and pilot builds to (requires -shards)")
		outPath    = flag.String("out", "", "scale mode: write the JSON series to this file instead of stdout, e.g. -out BENCH_scale.json for a CI perf artifact")
		tracePath  = flag.String("trace", "", "scale mode: write a JSON phase trace of every measured point to this file (also embeds per-point phase summaries in the series)")
		timeout    = flag.Duration("timeout", 0, "scale mode: abort any single measured build after this long, e.g. 2m (0 = unbounded)")
		editfracs  = flag.String("editfracs", "0.001,0.01", "eco mode: comma-separated edit fractions, each sizing a seeded perturbation script")
		shardcnts  = flag.String("shardcounts", "8", "eco mode: comma-separated shard counts for the cached contract")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	// Flag-combination validation: refuse flags the selected mode would
	// silently ignore, and contradictory scale configurations.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch *mode {
	case "scale":
		if set["circuit"] {
			fatal(fmt.Errorf("-circuit selects a table-mode circuit; scale mode uses -sizes/-dist or -suite"))
		}
		for _, f := range []string{"editfracs", "shardcounts"} {
			if set[f] {
				fatal(fmt.Errorf("-%s applies to -mode eco only (current mode %q)", f, *mode))
			}
		}
		if *suite && (set["sizes"] || set["dist"] || set["seed"]) {
			fatal(fmt.Errorf("-suite runs the spec-pinned LargeSuite; it is mutually exclusive with -sizes/-dist/-seed"))
		}
		if *shards > 0 && (*pairer == "scan" || *pairer == "both") {
			fatal(fmt.Errorf("-shards targets scales where the O(n²) scan oracle is impractical; forcing -pairer %s alongside it is almost certainly unintended — drop one", *pairer))
		}
		if *groups == 1 || *groups < 0 {
			fatal(fmt.Errorf("-groups %d: the grouped variant needs ≥ 2 groups (0 = off)", *groups))
		}
		if *pilot {
			if *groups == 0 {
				fatal(fmt.Errorf("-pilot aligns inter-group offsets and applies to the grouped variant; add -groups"))
			}
			if *shards == 0 {
				fatal(fmt.Errorf("-pilot requires -shards ≥ 1 (the pilot pass exists to align shard builds)"))
			}
		}
		if set["timeout"] && *timeout <= 0 {
			fatal(fmt.Errorf("-timeout must be positive (got %v); drop it to run unbounded", *timeout))
		}
		if set["workers"] {
			if *workers == "" {
				fatal(fmt.Errorf("-workers needs at least one host:port address"))
			}
			if *shards == 0 {
				fatal(fmt.Errorf("-workers ships shard builds to routeworkers and requires -shards ≥ 1"))
			}
		}
	case "eco":
		// The eco series fixes the routing configuration by the cached
		// contract: grid pairing, pilot iff grouped, shard counts swept by
		// -shardcounts. Flags that would contradict that are refused rather
		// than silently ignored.
		for _, f := range []string{"circuit", "suite", "pairer", "pilot", "workers", "trace"} {
			if set[f] {
				fatal(fmt.Errorf("-%s does not apply to -mode eco (the eco series fixes the routing configuration; see -editfracs/-shardcounts)", f))
			}
		}
		if set["shards"] {
			fatal(fmt.Errorf("-shards belongs to -mode scale; the eco series sweeps -shardcounts"))
		}
		if set["timeout"] && *timeout <= 0 {
			fatal(fmt.Errorf("-timeout must be positive (got %v); drop it to run unbounded", *timeout))
		}
		if *groups == 1 || *groups < 0 {
			fatal(fmt.Errorf("-groups %d: the grouped eco series needs ≥ 2 groups (0 = single-group)", *groups))
		}
		if !set["groups"] {
			// Grouped + piloted is the contract the tentpole protects; make it
			// the default shape and let -groups 0 opt into the single-group run.
			*groups = 4
		}
	default:
		for _, f := range []string{"sizes", "dist", "pairer", "seed", "suite", "out", "groups", "pilot", "workers", "trace", "timeout"} {
			if set[f] {
				fatal(fmt.Errorf("-%s applies to -mode scale only (current mode %q)", f, *mode))
			}
		}
		for _, f := range []string{"editfracs", "shardcounts"} {
			if set[f] {
				fatal(fmt.Errorf("-%s applies to -mode eco only (current mode %q)", f, *mode))
			}
		}
		if *shards > 0 { // an explicit -shards 0 is the documented "off" and harmless
			fatal(fmt.Errorf("-shards applies to -mode scale only (current mode %q)", *mode))
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		out = f
	}

	stopProf, err := profutil.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *mode == "scale" {
		runScale(out, *sizes, *dist, *pairer, *seed, *suite, *shards, *groups, *pilot, *workers, *tracePath, *timeout)
		return
	}
	if *mode == "eco" {
		runEco(out, *sizes, *dist, *editfracs, *shardcnts, *groups, *seed, *timeout)
		return
	}

	sp, err := bench.BySuiteName(*circuit)
	if err != nil {
		fatal(err)
	}
	base := bench.Generate(sp)

	switch *mode {
	case "bound":
		fmt.Println("bound_ps,wirelen,skew_ps")
		for _, bound := range []float64{0, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000} {
			res, err := core.EXTBST(base, bound, core.Options{})
			if err != nil {
				fatal(err)
			}
			rep := analyze(res, base)
			fmt.Printf("%g,%.0f,%.2f\n", bound, res.Wirelength, rep.GlobalSkew)
		}
	case "groups":
		ext, err := core.EXTBST(base, experiments.EXTBoundPs, core.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Println("grouping,k,wirelen,reduction_pct,maxskew_ps,groupskew_ps")
		for _, grouping := range []string{"clustered", "intermingled"} {
			for _, k := range []int{2, 4, 6, 8, 10, 12, 16} {
				var in *ctree.Instance
				if grouping == "clustered" {
					in = bench.Clustered(base, k)
				} else {
					in = bench.Intermingled(base, k, sp.Seed*1000+int64(k))
				}
				res, err := core.Build(in, core.Options{IntraSkewBound: experiments.ASTIntraBoundPs})
				if err != nil {
					fatal(err)
				}
				rep := analyze(res, in)
				fmt.Printf("%s,%d,%.0f,%.2f,%.1f,%.1f\n", grouping, k, res.Wirelength,
					100*(ext.Wirelength-res.Wirelength)/ext.Wirelength,
					rep.GlobalSkew, rep.MaxGroupSkew)
			}
		}
	case "difficulty":
		ext, err := core.EXTBST(base, experiments.EXTBoundPs, core.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Println("mix,wirelen,reduction_pct,maxskew_ps,groupskew_ps")
		for _, mix := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1} {
			in := bench.Blend(base, 6, mix, sp.Seed*7)
			res, err := core.Build(in, core.Options{IntraSkewBound: experiments.ASTIntraBoundPs})
			if err != nil {
				fatal(err)
			}
			rep := analyze(res, in)
			fmt.Printf("%.2f,%.0f,%.2f,%.1f,%.1f\n", mix, res.Wirelength,
				100*(ext.Wirelength-res.Wirelength)/ext.Wirelength,
				rep.GlobalSkew, rep.MaxGroupSkew)
		}
	case "offsetfloat":
		in := bench.Intermingled(base, 6, sp.Seed*1000+6)
		fmt.Println("inter_window_ps,wirelen,maxskew_ps,groupskew_ps")
		for _, w := range []float64{0, 10, 20, 40, 80, 120} {
			res, err := core.Build(in, core.Options{
				IntraSkewBound: experiments.ASTIntraBoundPs, InterSkewBound: w,
			})
			if err != nil {
				fatal(err)
			}
			rep := analyze(res, in)
			fmt.Printf("%g,%.0f,%.1f,%.1f\n", w, res.Wirelength, rep.GlobalSkew, rep.MaxGroupSkew)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

func analyze(res *core.Result, in *ctree.Instance) *eval.Report {
	return eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
