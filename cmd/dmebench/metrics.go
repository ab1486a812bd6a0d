package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// metricDef names one reported metric with its unit and the direction in
// which it improves. BENCHMARK.json repeats these; the smoke test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports for every workload.
var endToEnd = []metricDef{
	{"op_p50_s", "s", "lower"},
	{"op_p90_s", "s", "lower"},
	{"sinks_per_s", "sinks/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"wirelength", "units", "lower"},
	{"wire_ratio", "ratio", "lower"},
}

// perLayer are the metrics a traced run reports for every workload. A layer
// every workload runs is timed in seconds per op; a phase only some
// workloads run is reported as its share of op wall time (_frac), so the
// workloads that bypass it read 0 rather than a time.
var perLayer = []metricDef{
	{"instio.read_s", "s", "lower"},
	{"instio.bytes", "B", "lower"},
	{"core.route_s", "s", "lower"},
	{"core.embed_frac", "frac", "lower"},
	{"core.wave_rounds", "count", "lower"},
	{"core.wave_idle_frac", "frac", "lower"},
	{"core.sneak_iters", "count", "lower"},
	{"core.sneak_success_frac", "frac", "higher"},
	{"core.sneak_unresolved", "count", "lower"},
	{"order.pairing_s", "s", "lower"},
	{"order.pair_scans", "count", "lower"},
	{"spatial.grid_rebuild_frac", "frac", "lower"},
	{"spatial.grid_rebuilds", "count", "lower"},
	{"shard.partition_frac", "frac", "lower"},
	{"shard.pilot_frac", "frac", "lower"},
	{"shard.pilot_sinks", "count", "lower"},
	{"shard.fanout_frac", "frac", "lower"},
	{"shard.fanout_imbalance", "x", "lower"},
	{"shard.stitch_frac", "frac", "lower"},
	{"shard.finalize_frac", "frac", "lower"},
	{"shard.eco_dirty_frac", "frac", "lower"},
	{"shard.eco_adopt_frac", "frac", "lower"},
	{"shard.eco_dirty_shards", "count", "lower"},
	{"shard.eco_reuse_frac", "frac", "higher"},
	{"dispatch.tasks", "count", "lower"},
	{"dispatch.attempts_per_task", "x", "lower"},
	{"dispatch.retries", "count", "lower"},
	{"dispatch.hedges", "count", "lower"},
	{"dispatch.remote_fallbacks", "count", "lower"},
	{"dispatch.workers_lost", "count", "lower"},
	{"wire.requests", "count", "lower"},
	{"wire.request_bytes", "B", "lower"},
	{"wire.response_bytes", "B", "lower"},
	{"wire.decode_frac", "frac", "lower"},
	{"wire.execute_frac", "frac", "lower"},
	{"wire.encode_frac", "frac", "lower"},
	{"eval.analyze_s", "s", "lower"},
	{"eval.max_group_skew_ps", "ps", "lower"},
	{"eval.seam_skew_ps", "ps", "lower"},
	{"runtime.cpu_s_per_op", "s", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.par_speedup", "x", "higher"},
	{"obs.attributed_frac", "frac", "higher"},
	{"obs.overhead_frac", "frac", "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics are a run's reported values by name.
type metrics map[string]value

func (m metrics) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = value{Value: v, Unit: d.unit}
			return
		}
	}
	panic("dmebench: unknown metric " + name)
}

// percentile is the nearest-rank q-quantile of xs (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fingerprint identifies a routed tree bit for bit: its wirelength and an
// FNV-1a digest of every sink's Elmore delay as measured by eval.
type fingerprint struct {
	wire   uint64
	delays uint64
}

func fingerprintOf(o *opOut) fingerprint {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range o.rep.SinkDelay {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
		h.Write(b[:])
	}
	return fingerprint{wire: math.Float64bits(o.res.Wirelength), delays: h.Sum64()}
}
