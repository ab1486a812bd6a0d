package main

import (
	"math"
	"strings"

	"repro/internal/obs"
)

// layerAcc sums the per-layer quantities of a traced pass's ops. Each op's
// trace holds the benchmark's spans around the calls into each layer and,
// as its child "engine", the spans and metrics the program records itself.
type layerAcc struct {
	ops  float64
	wall float64 // Σ op wall time, s
	sum  map[string]float64
	// imbalance lists, per sharded op, the slowest shard route over the
	// mean shard route.
	imbalance          []float64
	maxGroupSkew, seam float64
}

func newLayerAcc() *layerAcc { return &layerAcc{sum: map[string]float64{}} }

// phases returns the durations (s) of a trace's top-level spans by name.
func phases(t *obs.Trace) map[string]float64 {
	out := map[string]float64{}
	for _, p := range t.Summary().Phases {
		out[p.Name] += p.MS / 1e3
	}
	return out
}

// phaseTotal sums the named top-level spans over a trace and every
// descendant: busy time, which exceeds wall time where builds run in
// parallel.
func phaseTotal(t *obs.Trace, name string) float64 {
	s := phases(t)[name]
	for _, c := range t.Children() {
		s += phaseTotal(c, name)
	}
	return s
}

func (a *layerAcc) add(tr *obs.Trace, out *opOut, wall float64, wc wireCounts) {
	a.ops++
	a.wall += wall
	mine := phases(tr)
	eng := tr.Children()[0]
	ep := phases(eng)
	engCovered := eng.Summary().CoveredMS / 1e3
	metric := func(name string) float64 {
		v, _ := eng.MetricValue(name)
		return v
	}
	s := a.sum
	s["read"] += mine["instio.read"]
	s["bytes"] += float64(out.inputBytes)
	s["eval"] += mine["eval"]
	s["covered"] += mine["instio.read"] + engCovered + mine["eval"]

	s["route"] += phaseTotal(eng, "route")
	s["embed"] += ep["embed"]
	s["wave_rounds"] += metric(obs.MetricWaveRounds)
	s["wave_slot"] += metric(obs.MetricWaveSlotNS)
	s["wave_idle"] += metric(obs.MetricWaveIdleNS)
	s["sneak_iters"] += metric("sneak_iters")
	s["sneak_events"] += metric("sneak_events")
	s["sneak_unresolved"] += metric("sneak_unresolved")
	s["pairing"] += metric(obs.MetricPairingNS) / 1e9
	s["pair_scans"] += metric("pair_scans")
	s["grid_rebuild"] += metric(obs.MetricGridRebuildNS) / 1e9
	for _, trigger := range []string{"live_drop", "edge_clamp", "scan_rate", "cell_walk"} {
		s["grid_rebuilds"] += metric("grid_rebuilds_" + trigger)
	}

	// The sharded pipeline's phases; an ECO rebuild names its fan-out
	// "rebuild" and its stitch "restitch", and leaves clean-shard adoption
	// unspanned: the build span's remainder is that adoption.
	s["partition"] += ep["partition"]
	s["pilot"] += ep["pilot"]
	s["fanout"] += ep["shards"] + ep["rebuild"]
	s["stitch"] += ep["stitch"] + ep["restitch"]
	s["finalize"] += ep["finalize"]
	res := out.res
	if _, piloted := ep["pilot"]; piloted {
		s["pilot_sinks"] += float64(res.PilotSinks) // an ECO result echoes the cached pilot's
	}
	if _, eco := ep["dirty"]; eco {
		s["dirty"] += ep["dirty"]
		s["adopt"] += math.Max(0, mine["build"]-engCovered)
		s["eco_dirty_shards"] += float64(len(res.EcoRebuilt))
		s["eco_reused"] += float64(res.EcoReused)
		s["eco_shards"] += float64(len(res.Shards))
	}
	var routes []float64
	for _, c := range eng.Children() {
		if strings.HasPrefix(c.Label(), "shard") {
			if r := phaseTotal(c, "route"); r > 0 {
				routes = append(routes, r)
			}
		}
	}
	if len(routes) > 0 {
		var slowest, total float64
		for _, r := range routes {
			slowest = math.Max(slowest, r)
			total += r
		}
		a.imbalance = append(a.imbalance, slowest/(total/float64(len(routes))))
	}

	d := res.Dispatch
	s["tasks"] += float64(d.Tasks)
	s["attempts"] += float64(d.Attempts)
	s["retries"] += float64(d.Retries)
	s["hedges"] += float64(d.Hedges)
	s["fallbacks"] += float64(d.RemoteFallbacks)
	s["workers_lost"] += float64(d.WorkersLost)

	s["requests"] += wc.requests
	s["request_bytes"] += wc.requestBytes
	s["response_bytes"] += wc.responseBytes
	s["decode"] += wc.decode
	s["execute"] += wc.execute
	s["encode"] += wc.encode

	a.maxGroupSkew = math.Max(a.maxGroupSkew, out.rep.MaxGroupSkew)
	a.seam = math.Max(a.seam, out.seam)
}

// metrics turns the sums into the per-layer metrics: per-op means, shares
// of op wall time, and ratios of sums.
func (a *layerAcc) metrics() metrics {
	m := metrics{}
	if a.ops == 0 {
		return m
	}
	s := a.sum
	perOp := func(name, key string) { m.set(perLayer, name, s[key]/a.ops) }
	share := func(name, key string) { m.set(perLayer, name, s[key]/a.wall) }
	ratio := func(name, num, den string) {
		v := 0.0
		if s[den] > 0 {
			v = s[num] / s[den]
		}
		m.set(perLayer, name, v)
	}
	perOp("instio.read_s", "read")
	perOp("instio.bytes", "bytes")
	perOp("core.route_s", "route")
	share("core.embed_frac", "embed")
	perOp("core.wave_rounds", "wave_rounds")
	ratio("core.wave_idle_frac", "wave_idle", "wave_slot")
	perOp("core.sneak_iters", "sneak_iters")
	ratio("core.sneak_success_frac", "sneak_events", "sneak_iters")
	perOp("core.sneak_unresolved", "sneak_unresolved")
	perOp("order.pairing_s", "pairing")
	perOp("order.pair_scans", "pair_scans")
	share("spatial.grid_rebuild_frac", "grid_rebuild")
	perOp("spatial.grid_rebuilds", "grid_rebuilds")
	share("shard.partition_frac", "partition")
	share("shard.pilot_frac", "pilot")
	perOp("shard.pilot_sinks", "pilot_sinks")
	share("shard.fanout_frac", "fanout")
	imbalance := 0.0
	if len(a.imbalance) > 0 {
		imbalance = median(a.imbalance)
	}
	m.set(perLayer, "shard.fanout_imbalance", imbalance)
	share("shard.stitch_frac", "stitch")
	share("shard.finalize_frac", "finalize")
	share("shard.eco_dirty_frac", "dirty")
	share("shard.eco_adopt_frac", "adopt")
	perOp("shard.eco_dirty_shards", "eco_dirty_shards")
	ratio("shard.eco_reuse_frac", "eco_reused", "eco_shards")
	perOp("dispatch.tasks", "tasks")
	ratio("dispatch.attempts_per_task", "attempts", "tasks")
	perOp("dispatch.retries", "retries")
	perOp("dispatch.hedges", "hedges")
	perOp("dispatch.remote_fallbacks", "fallbacks")
	perOp("dispatch.workers_lost", "workers_lost")
	perOp("wire.requests", "requests")
	perOp("wire.request_bytes", "request_bytes")
	perOp("wire.response_bytes", "response_bytes")
	share("wire.decode_frac", "decode")
	share("wire.execute_frac", "execute")
	share("wire.encode_frac", "encode")
	perOp("eval.analyze_s", "eval")
	m.set(perLayer, "eval.max_group_skew_ps", a.maxGroupSkew)
	m.set(perLayer, "eval.seam_skew_ps", a.seam)
	share("obs.attributed_frac", "covered")
	return m
}
