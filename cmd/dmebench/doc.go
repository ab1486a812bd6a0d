// Command dmebench is the routing engine's benchmark: it drives the engine
// through its public API on five named workloads, checks every output, and
// reports end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs) by name with their units. BENCHMARK.json at the repository root
// names the workloads and metrics and fixes each end-to-end metric's
// regression bound; baseline.json beside this file records the measured
// baseline those bounds were set against.
//
// # Running
//
// The benchmark is a module of its own. From the repository root,
//
//	bash cmd/dmebench/run.sh --workload flat-zst --seed 1 --seconds 20 --trace 0
//
// builds it into .bench_build/ and runs one workload for twenty seconds of
// ops, BENCHMARK.json's run_seconds; --workload all, the default, runs the
// five in turn. --trace 1 makes the run traced: it reports the per-layer
// metrics instead and writes the span tree of its first traced ops to
// .bench_build/dmebench-trace-<workload>.json (-trace-out moves it). Every
// run appends a JSON record (metrics, problems found, calibration and
// provenance) to .bench_build/dmebench.jsonl (-out moves it), and prints
// each metric on its own line followed, as the last line of standard
// output, by
//
//	{"correct":true,"attempted":61,"failed":0,"metrics":{"op_p50_s":{"value":0.1003,"unit":"s"},...}}
//
// The exit status is 1 when any op failed or any check did not hold.
//
// # Load shape
//
// One closed-loop client in one process: each op starts when the previous
// one has returned. A run sets its workload up (inputs generated from
// --seed with internal/bench and serialized, plus any program-side state),
// routes an untimed reference, runs one untimed warm-up op, then times ops
// for --seconds and at least 100 ops, ending at a whole cycle of the
// workload's inputs so every run weighs each input equally. One op is
// input bytes in, routed tree and eval report out. GOMAXPROCS is the CPU
// count.
//
// The generated workloads share one fixed power-law placement (32 clusters,
// α = 1.5, the p10k circuit's seed), cut to their sink counts, and the seed
// draws what varies on it: the intermingled grouping, the sink loads of
// flat-zst, the edit scripts of eco-chain. The placement decides how evenly
// shards split the work and how hot the spatial grid's cells run, so
// redrawing it would measure one placement's luck rather than the engine.
//
// # Workloads
//
//   - paper-table2: the paper's difficult instances at paper scale, its
//     Table II: r1–r5 under seeded intermingled groupings of 4, 6, 8 and 10
//     groups, routed AST-DME at the 10 ps intra-group bound; time goes to merge windows, sneaks and the scan
//     pairer, while shard, pilot, wire and most of the spatial grid are
//     bypassed.
//   - flat-zst: 10k sinks in one group at zero skew; the raw route engine,
//     grid pairing under hot-cell clustering and the parallel merge wave,
//     with no groups, sneaks, shards or wire.
//   - sharded-difficult: 4k sinks intermingled in 4 groups, routed
//     at 4 shards with the pilot, in process; partition, pilot, shard
//     fan-out and stitch on an instance where seam skew is the risk.
//   - remote-wire: the same bytes and options dispatched to two in-process
//     wire workers over loopback HTTP; its only difference from
//     sharded-difficult is the wire codec, HTTP and the remote runner.
//   - eco-chain: 30k sinks intermingled in 4 groups, retained at 8 shards;
//     each op rebuilds one hop of a chain of 20 seeded 0.1% edit scripts
//     incrementally, restarting from the retained build each cycle; instio
//     reads an edit script instead of an instance.
//
// # End-to-end metrics
//
//   - op_p50_s, op_p90_s: median and 90th-percentile op wall time.
//   - sinks_per_s: sinks routed over the summed op time.
//   - alloc_mb_per_op: bytes allocated over the timed pass, per op.
//   - setup_s: the median set-up of the workload, repeated at least three
//     times and for at least a second: input generation and serialization
//     plus program-side state (the retained build and edit chain of
//     eco-chain, the workers and their first health probes of remote-wire).
//     References are routed outside it.
//   - wirelength: total wire, summed over paper-table2's twenty inputs, or
//     of the final hop of eco-chain.
//   - wire_ratio: wirelength over a reference routing of the same inputs:
//     EXT-BST at 10 ps (paper-table2, the paper's reduction), the textbook
//     zero-skew DME of internal/dme (flat-zst), the unsharded grouped build
//     (sharded-difficult, remote-wire), or a from-scratch sharded build of
//     the chain's final instance (eco-chain, the chain's drift).
//
// # Checks
//
// Every op must reach every sink, report the wire eval measures, repeat
// bit for bit (wirelength and an FNV digest of every sink delay) on every
// input it saw before, and, under a zero bound, leave only float noise of
// group and seam skew. remote-wire must reproduce the in-process sharded
// tree bit for bit and never fall back. eval.CheckTree must pass on the
// first and last op. A failed op is an error, a failed check, a remote
// fallback, or an ECO hop the cached contract could not absorb (the chain
// then continues from a full retained build).
//
// # Per-layer metrics
//
// A traced run splits --seconds into a traced pass (half), an untraced pass
// and a pass at GOMAXPROCS=1 (a quarter each). The benchmark times its own
// calls into instio, the build and eval, and reads the spans and metrics
// the engine records through core.Options.Trace and shard.RebuildOptions.Trace,
// the dispatch report of shard.Result, and, on remote-wire, its own worker
// handler's three wire calls. A layer every workload runs is reported in
// seconds per op (instio.read_s, core.route_s, order.pairing_s,
// eval.analyze_s); a phase only some workloads run is reported as its share
// of op wall time (_frac), so a bypass reads 0. Busy time of parallel work
// (core.route_s, wire.execute_frac) can exceed wall time.
// shard.eco_adopt_frac is the rebuild's unspanned remainder, clean-shard
// adoption. runtime.cpu_s_per_op is the process's user+system CPU per op
// of the untraced pass, above op wall time where work runs in parallel;
// runtime.par_speedup is the GOMAXPROCS=1 pass's median op over the
// untraced pass's, and obs.overhead_frac the traced pass's over the
// untraced pass's, less one.
//
// Each run also times a fixed kernel, a dependent walk over a 16 MB table,
// before and after it (the record's calibration): when the kernel slows as
// much as the ops, the host drifted. It is informational, never gated.
//
// # Comparing
//
//	dmebench -compare base.jsonl new.jsonl
//
// prints, per workload and end-to-end metric, the median of each file's
// runs, the change, the wider quartile spread of the two, the bound from
// BENCHMARK.json (-spec) and a verdict: unchanged within the bound, better
// or worse beyond it, and unresolved when the runs' own spread exceeds the
// bound, unless every new run reads better, or every one worse, than every
// base run. Given traced runs on both sides it also prints each per-layer
// metric's change. Run both sides with the same --seconds and seeds.
//
// The older performance surfaces — sweep -mode scale|eco,
// BenchmarkOrderScaling and the CI BENCH_* series — are untouched by this
// command; folding them into it is later work.
package main
