package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
)

// keptTraces is how many traced ops of a run are kept for the span-tree
// file; later ops are measured and dropped, which bounds the run's memory.
const keptTraces = 3

// runner runs one workload: its set-up, its passes of ops, and the checks
// on every op's output.
type runner struct {
	w       workload
	sess    session
	ref     *reference
	setups  []float64
	checker checker
	// root collects the span trees of the first keptTraces traced ops;
	// traced counts the traced ops so far.
	root   *obs.Trace
	traced int
}

// outcome is what a run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   metrics
	problems  []string
	calib     calibration
}

// calibration is the time of a fixed kernel before and after the run's
// measurements: a reader compares the two across runs to tell host speed
// drift from a change in the program. It is informational, never gated.
type calibration struct {
	BeforeS float64 `json:"before_s"`
	AfterS  float64 `json:"after_s"`
}

// newRunner sets the workload up, repeatedly when repeat is set (keeping
// the last session), then routes its reference. timedWorkers selects
// remote-wire's instrumented worker handler.
func newRunner(w workload, cfg config, seed int64, repeat, timedWorkers bool) (*runner, error) {
	r := &runner{w: w}
	spent := 0.0
	for i := 0; i == 0 || repeat && i < maxSetups && (i < cfg.setups || spent < cfg.setupSeconds); i++ {
		if r.sess != nil {
			r.sess.close()
			r.sess = nil
		}
		runtime.GC()
		start := time.Now()
		sess, err := w.setup(cfg, seed, timedWorkers)
		r.setups = append(r.setups, time.Since(start).Seconds())
		spent += r.setups[i]
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		r.sess = sess
	}
	ref, err := r.sess.reference()
	if err != nil {
		r.sess.close()
		return nil, fmt.Errorf("%s: reference: %w", w.name, err)
	}
	r.ref = ref
	r.checker = checker{ref: ref, zeroSkew: w.zeroSkew, seen: map[int]fingerprint{}, wires: map[int]float64{}}
	return r, nil
}

// measureEndToEnd is an untraced run: one warm-up op, then one pass of ops
// lasting seconds, reported as the end-to-end metrics.
func measureEndToEnd(w workload, cfg config, seed int64, seconds float64) (*outcome, error) {
	before := calibrate()
	r, err := newRunner(w, cfg, seed, true, false)
	if err != nil {
		return nil, err
	}
	defer r.sess.close()
	r.warmUp()
	p := r.pass(seconds, cfg.minOps, false)
	o := r.finish(before)

	m := metrics{}
	if len(p.durs) > 0 {
		m.set(endToEnd, "op_p50_s", median(p.durs))
		m.set(endToEnd, "op_p90_s", percentile(p.durs, 0.9))
		m.set(endToEnd, "sinks_per_s", float64(p.sinks)/p.wall)
	}
	m.set(endToEnd, "alloc_mb_per_op", float64(p.alloc)/1e6/float64(p.attempted))
	m.set(endToEnd, "setup_s", median(r.setups))
	wl := r.wirelength()
	m.set(endToEnd, "wirelength", wl)
	m.set(endToEnd, "wire_ratio", wl/r.ref.wire)
	o.metrics = m
	return o, nil
}

// measureLayers is a traced run: a traced pass for the per-layer numbers
// and an untraced pass (the tracing overhead and the GC share) at the
// process's GOMAXPROCS, then a pass at GOMAXPROCS=1 (the parallel speedup),
// each over a share of seconds.
func measureLayers(w workload, cfg config, seed int64, seconds float64) (*outcome, *obs.Trace, error) {
	before := calibrate()
	r, err := newRunner(w, cfg, seed, false, true)
	if err != nil {
		return nil, nil, err
	}
	defer r.sess.close()
	r.root = obs.New(w.name)
	r.root.SetProvenance(obs.CollectProvenance())
	r.warmUp()
	traced := r.pass(seconds/2, 0, true)
	plain := r.pass(seconds/4, 0, false)
	procs := runtime.GOMAXPROCS(1)
	serial := r.pass(seconds/4, 0, false)
	runtime.GOMAXPROCS(procs)
	r.root.Close()
	o := r.finish(before)

	m := traced.layers.metrics()
	if len(plain.durs) > 0 && len(traced.durs) > 0 && len(serial.durs) > 0 {
		p50 := median(plain.durs)
		m.set(perLayer, "runtime.par_speedup", median(serial.durs)/p50)
		m.set(perLayer, "obs.overhead_frac", median(traced.durs)/p50-1)
	}
	ops := float64(plain.attempted)
	m.set(perLayer, "runtime.cpu_s_per_op", plain.cpu/ops)
	m.set(perLayer, "runtime.gc_cycles_per_op", plain.gcCycles/ops)
	gcShare := 0.0
	if plain.totalCPU > 0 { // the runtime accounts CPU classes at GC cycles
		gcShare = plain.gcCPU / plain.totalCPU
	}
	m.set(perLayer, "runtime.gc_cpu_frac", gcShare)
	o.metrics = m
	return o, r.root, nil
}

// warmUp runs one untimed op so lazy initialization and caches settle
// before any pass; its output is checked like every other op's.
func (r *runner) warmUp() {
	out, err := r.sess.op(0, nil)
	r.checker.observe(0, out, err)
}

// finish runs the end-of-run checks and assembles the outcome.
func (r *runner) finish(before float64) *outcome {
	c := &r.checker
	if c.last != nil {
		c.checkTree(c.last)
	}
	for k := 0; k < r.sess.cycle(); k++ {
		if _, ok := c.wires[k]; !ok {
			c.problem("input %d was never routed", k)
		}
	}
	return &outcome{
		correct:   len(c.problems) == 0,
		attempted: c.attempted,
		failed:    c.failed,
		problems:  c.problems,
		calib:     calibration{BeforeS: before, AfterS: calibrate()},
	}
}

// wirelength is the workload's wire: summed over its cycle of inputs, or of
// the cycle's last input.
func (r *runner) wirelength() float64 {
	n := r.sess.cycle()
	if !r.w.sumWire {
		return r.checker.wires[n-1]
	}
	var s float64
	for k := 0; k < n; k++ {
		s += r.checker.wires[k]
	}
	return s
}

// wireCounts reads remote-wire's worker-side counters (zero elsewhere).
func (r *runner) wireCounts() wireCounts {
	if s, ok := r.sess.(*shardedSession); ok {
		return s.timing.snapshot()
	}
	return wireCounts{}
}

// passStats measures one pass of ops.
type passStats struct {
	durs      []float64 // wall time of each successful op, s
	wall      float64   // their sum
	sinks     int
	attempted int
	cpu       float64 // process user+system CPU, s
	alloc     uint64  // bytes allocated
	gcCycles  float64
	gcCPU     float64 // GC CPU, s
	totalCPU  float64 // CPU available to the runtime: GOMAXPROCS × wall, s
	layers    *layerAcc
}

// pass runs ops from input 0 until seconds have elapsed, at least minOps
// ops have run and the current cycle of inputs is complete, so every pass
// weighs each input equally. Checks run between ops, outside the op timer.
func (r *runner) pass(seconds float64, minOps int, traced bool) passStats {
	p := passStats{layers: newLayerAcc()}
	cycle := r.sess.cycle()
	runtime.GC()
	before := sampleResources()
	start := time.Now()
	for i := 0; i == 0 || i%cycle != 0 || i < minOps || time.Since(start).Seconds() < seconds; i++ {
		var tr *obs.Trace
		if traced {
			if r.traced < keptTraces {
				tr = r.root.Child(fmt.Sprintf("op%d", r.traced))
			} else {
				tr = obs.New("op")
			}
			r.traced++
		}
		wc0 := r.wireCounts()
		t0 := time.Now()
		out, err := r.sess.op(i, tr)
		d := time.Since(t0).Seconds()
		tr.Close()
		p.attempted++
		if !r.checker.observe(i%cycle, out, err) {
			continue
		}
		p.durs = append(p.durs, d)
		p.wall += d
		p.sinks += out.rep.Sinks
		if traced {
			p.layers.add(tr, out, d, r.wireCounts().minus(wc0))
		}
	}
	after := sampleResources()
	p.cpu = after.cpu - before.cpu
	p.alloc = after.alloc - before.alloc
	p.gcCycles = after.gcCycles - before.gcCycles
	p.gcCPU = after.gcCPU - before.gcCPU
	p.totalCPU = after.totalCPU - before.totalCPU
	return p
}

// resources is a snapshot of the process counters a pass differences.
type resources struct {
	cpu                       float64
	alloc                     uint64
	gcCycles, gcCPU, totalCPU float64
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleResources() resources {
	var res resources
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.alloc = ms.TotalAlloc
	rtmetrics.Read(runtimeSamples)
	res.gcCycles = float64(runtimeSamples[0].Value.Uint64())
	res.gcCPU = runtimeSamples[1].Value.Float64()
	res.totalCPU = runtimeSamples[2].Value.Float64()
	return res
}

// checker verifies every op's output as it arrives and keeps what the
// end-of-run checks need.
type checker struct {
	ref               *reference
	zeroSkew          bool
	seen              map[int]fingerprint // first fingerprint of each input
	wires             map[int]float64     // wirelength of each input
	checkedFirst      bool
	last              *opOut // the latest successful op's output
	problems          []string
	attempted, failed int
}

// zeroSkewTol is the float noise a zero-skew bound tolerates, in ps: far
// below any skew a routing decision can leave (hundredths of a ps and up).
const zeroSkewTol = 1e-3

// maxProblems caps the problems a run lists; the failed count keeps the rest.
const maxProblems = 10

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// observe checks the output of one op on input key and reports whether the
// op succeeded. A failed op is an error, a remote fallback, or a check the
// output fails: every sink reached, the engine's wire equal to eval's own
// measure, and the same tree as every earlier op on the same input.
func (c *checker) observe(key int, out *opOut, err error) bool {
	c.attempted++
	ok := err == nil
	if err != nil {
		c.problem("input %d: %v", key, err)
	} else {
		ok = c.verify(key, out)
	}
	if !ok {
		c.failed++
		return false
	}
	if !c.checkedFirst {
		c.checkTree(out)
		c.checkedFirst = true
	}
	c.last = out
	return true
}

// checkTree runs eval.CheckTree, which the first and the last op's trees
// must pass. The first is checked as it arrives rather than kept, so the
// program's heap, which paces its garbage collector, holds no more than an
// op in flight and the one before it.
func (c *checker) checkTree(o *opOut) {
	if err := eval.CheckTree(o.res.Root, o.in); err != nil {
		c.problem("tree check: %v", err)
	}
}

func (c *checker) verify(key int, out *opOut) bool {
	ok := true
	fail := func(format string, args ...any) {
		c.problem("input %d: "+format, append([]any{key}, args...)...)
		ok = false
	}
	if out.rep.Sinks != len(out.in.Sinks) {
		fail("%d of %d sinks reached", out.rep.Sinks, len(out.in.Sinks))
	}
	if w, e := out.res.Wirelength, out.rep.TotalWire; math.Abs(w-e) > 1e-9*e {
		fail("engine wirelength %v, eval measures %v", w, e)
	}
	if d := out.res.Dispatch; d.RemoteFallbacks > 0 || d.WorkersLost > 0 {
		fail("%d remote fallbacks, %d workers lost", d.RemoteFallbacks, d.WorkersLost)
	}
	if c.zeroSkew && math.Max(out.rep.MaxGroupSkew, out.seam) > zeroSkewTol {
		fail("group skew %g ps, seam skew %g ps under a zero bound", out.rep.MaxGroupSkew, out.seam)
	}
	fp := fingerprintOf(out)
	if prev, seen := c.seen[key]; !seen {
		c.seen[key] = fp
	} else if prev != fp {
		fail("routed to a different tree than on its first op")
	}
	if c.ref.identical != nil && fp != *c.ref.identical {
		fail("remote tree differs from the in-process sharded tree")
	}
	c.wires[key] = out.res.Wirelength
	return ok
}

// calibrate times a fixed kernel, the fastest of five runs: a dependent
// walk over a 16 MB table (larger than the L2 caches, so it also feels
// contention for the shared cache and memory) feeding a floating-point sum.
func calibrate() float64 {
	table := make([]uint64, 1<<21)
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	mask := uint64(len(table) - 1)
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		start := time.Now()
		j, acc := uint64(1), 0.0
		for i := 0; i < 2_000_000; i++ {
			j = (j*6364136223846793005 + 1442695040888963407 + table[j&mask]) & mask
			acc += float64(j) * 0x1p-21
		}
		if d := time.Since(start).Seconds(); d < best && acc > 0 {
			best = d
		}
	}
	return best
}
