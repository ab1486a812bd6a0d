package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/dme"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

// config sizes the workloads. full is what the benchmark runs; the smoke
// test routes the same workloads through the same runner at a smaller one.
type config struct {
	paperCircuits int   // how many of r1..r5 paper-table2 routes
	paperGroups   []int // intermingled group counts per circuit (Table II's)
	flatSinks     int
	shardedSinks  int
	shardedShards int
	ecoSinks      int
	ecoShards     int
	ecoHops       int // length of the edit chain eco-chain cycles through
	// An untraced run sets its workload up at least setups times and until
	// setupSeconds have passed (at most maxSetups times); setup_s is the
	// median, steady even where one set-up takes milliseconds.
	setups       int
	setupSeconds float64
	// minOps is the fewest ops an untraced pass times, so that op_p90_s has
	// ten samples beyond it.
	minOps int
}

const maxSetups = 200

var full = config{
	paperCircuits: 5,
	paperGroups:   experiments.GroupCounts,
	flatSinks:     10_000,
	shardedSinks:  4_000,
	shardedShards: 4,
	ecoSinks:      30_000,
	ecoShards:     8,
	ecoHops:       20,
	setups:        3,
	setupSeconds:  1,
	minOps:        100,
}

// Instance shape shared by the generated workloads: the seed of their
// power-law placement (the p10k scaling circuit's), the intermingled group
// count of the difficult instances, and the ECO edit fraction per hop.
const (
	placementSeed   = 1100
	difficultGroups = 4
	ecoEditFrac     = 0.001
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// sumWire says the workload's wirelength is the sum over its cycle of
	// inputs; otherwise it is the wire of the cycle's last input (the only
	// input, or the final hop of an edit chain).
	sumWire bool
	// zeroSkew says the workload routes under a zero intra-group bound, so
	// every group's skew and every seam skew must be float noise.
	zeroSkew bool
	// setup makes the inputs from the seed and the program-side state the
	// ops need. timedWorkers selects the benchmark's instrumented worker
	// handler (remote-wire only).
	setup func(cfg config, seed int64, timedWorkers bool) (session, error)
}

var workloads = []workload{
	{name: "paper-table2", sumWire: true, setup: setupPaper},
	{name: "flat-zst", zeroSkew: true, setup: setupFlat},
	{name: "sharded-difficult", zeroSkew: true, setup: setupSharded},
	{name: "remote-wire", zeroSkew: true, setup: setupRemote},
	{name: "eco-chain", zeroSkew: true, setup: setupEco},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// session is one set-up workload: its serialized inputs and program state.
type session interface {
	// cycle is the number of distinct inputs the ops walk through in order.
	cycle() int
	// op runs one operation on input i mod cycle: input bytes in, routed
	// tree and eval report out. A non-nil tr receives the benchmark's spans
	// (instio.read, build, eval) and, as its child "engine", the program's.
	op(i int, tr *obs.Trace) (*opOut, error)
	// reference routes, untimed, what wire_ratio divides by.
	reference() (*reference, error)
	close()
}

// reference is a workload's untimed comparison point.
type reference struct {
	// wire is the reference routing's wirelength, in wirelength's own
	// terms (summed over the cycle, or of the cycle's last input).
	wire float64
	// identical, when set, is the fingerprint every op must reproduce
	// bitwise (remote-wire against the in-process sharded build).
	identical *fingerprint
}

// opOut is one operation's product.
type opOut struct {
	in   *ctree.Instance
	res  *shard.Result
	rep  *eval.Report
	seam float64
	// inputBytes is the size of the serialized input the op read.
	inputBytes int
}

// readInstance is the instio layer of an op, under the benchmark's span.
func readInstance(data []byte, tr *obs.Trace) (*ctree.Instance, error) {
	rg := tr.Begin("instio.read")
	in, err := instio.ReadInstance(bytes.NewReader(data))
	rg.End()
	return in, err
}

// routeInstance is the op shared by the instance workloads: read the input
// bytes, route them with build, evaluate the tree.
func routeInstance(data []byte, tr *obs.Trace, build func(*ctree.Instance, *obs.Trace) (*shard.Result, error)) (*opOut, error) {
	in, err := readInstance(data, tr)
	if err != nil {
		return nil, err
	}
	eng := tr.Child("engine")
	rg := tr.Begin("build")
	res, err := build(in, eng)
	rg.End()
	eng.Close()
	if err != nil {
		return nil, err
	}
	out := evaluate(res, in, tr)
	out.inputBytes = len(data)
	return out, nil
}

// evaluate is the eval layer of an op, under the benchmark's span.
func evaluate(res *shard.Result, in *ctree.Instance, tr *obs.Trace) *opOut {
	rg := tr.Begin("eval")
	rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
	var seam float64
	if len(res.Parts) > 1 {
		_, seam = eval.SeamSkew(rep, in, res.Parts)
	}
	rg.End()
	return &opOut{in: in, res: res, rep: rep, seam: seam}
}

// serialize writes an instance in the interchange format ops read back.
func serialize(in *ctree.Instance) ([]byte, error) {
	var buf bytes.Buffer
	if err := instio.WriteInstance(&buf, in); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// placement is the n-sink power-law placement the generated workloads
// route, fixed like a benchmark circuit's. The seed draws what varies on it
// instead: the grouping or the sink loads, and the ECO edits. The placement
// decides how evenly the partition splits the work and how hot the grid's
// cells run, and a run should measure the engine, not one placement's luck.
func placement(n int) *ctree.Instance {
	return bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, placementSeed)
}

// difficult is the sharded workloads' instance: the placement under an
// intermingled grouping drawn from the seed, so every group spreads over
// the whole die.
func difficult(n int, seed int64) *ctree.Instance {
	return bench.Intermingled(placement(n), difficultGroups, seed)
}

func asShard(res *core.Result, err error) (*shard.Result, error) {
	if err != nil {
		return nil, err
	}
	return &shard.Result{Result: *res}, nil
}

// ---- paper-table2 ----

type paperSession struct {
	data  [][]byte
	bases []*ctree.Instance // the ungrouped circuit behind each input
}

func setupPaper(cfg config, seed int64, _ bool) (session, error) {
	s := &paperSession{}
	for ci, sp := range bench.Suite()[:cfg.paperCircuits] {
		base := bench.Generate(sp)
		for _, k := range cfg.paperGroups {
			in := bench.Intermingled(base, k, seed*1000+int64(16*ci+k))
			data, err := serialize(in)
			if err != nil {
				return nil, err
			}
			s.data = append(s.data, data)
			s.bases = append(s.bases, base)
		}
	}
	return s, nil
}

func (s *paperSession) cycle() int { return len(s.data) }

func (s *paperSession) op(i int, tr *obs.Trace) (*opOut, error) {
	return routeInstance(s.data[i%len(s.data)], tr, func(in *ctree.Instance, eng *obs.Trace) (*shard.Result, error) {
		return asShard(core.Build(in, core.Options{IntraSkewBound: experiments.ASTIntraBoundPs, Trace: eng}))
	})
}

// reference is the paper's baseline: EXT-BST at its 10 ps global bound on
// each input's circuit, summed like the AST-DME wire.
func (s *paperSession) reference() (*reference, error) {
	ext := map[*ctree.Instance]float64{}
	var sum float64
	for _, base := range s.bases {
		w, ok := ext[base]
		if !ok {
			res, err := core.EXTBST(base, experiments.EXTBoundPs, core.Options{})
			if err != nil {
				return nil, err
			}
			w = res.Wirelength
			ext[base] = w
		}
		sum += w
	}
	return &reference{wire: sum}, nil
}

func (s *paperSession) close() {}

// ---- flat-zst ----

type flatSession struct{ data []byte }

// Sink loads of flat-zst are drawn from the range internal/bench uses, fF.
const minLoadFF, maxLoadFF = 5, 50

// setupFlat makes flat-zst's input: the placement with sink loads drawn
// from the seed (one group leaves no grouping to draw).
func setupFlat(cfg config, seed int64, _ bool) (session, error) {
	in := placement(cfg.flatSinks)
	r := rand.New(rand.NewSource(seed))
	for i := range in.Sinks {
		in.Sinks[i].CapFF = minLoadFF + r.Float64()*(maxLoadFF-minLoadFF)
	}
	data, err := serialize(in)
	return &flatSession{data: data}, err
}

func (s *flatSession) cycle() int { return 1 }

func (s *flatSession) op(_ int, tr *obs.Trace) (*opOut, error) {
	return routeInstance(s.data, tr, func(in *ctree.Instance, eng *obs.Trace) (*shard.Result, error) {
		return asShard(core.ZST(in, core.Options{Trace: eng}))
	})
}

// reference is the textbook zero-skew DME of internal/dme, an implementation
// that shares none of the engine's merge machinery.
func (s *flatSession) reference() (*reference, error) {
	in, err := instio.ReadInstance(bytes.NewReader(s.data))
	if err != nil {
		return nil, err
	}
	res, err := dme.Build(in, core.DefaultModel())
	if err != nil {
		return nil, err
	}
	return &reference{wire: res.Wirelength}, nil
}

func (s *flatSession) close() {}

// ---- sharded-difficult and remote-wire ----

// shardedSession routes one difficult instance sharded and piloted, in
// process or, with pool set, over the wire to in-process workers.
type shardedSession struct {
	data   []byte
	shards int
	pool   *dispatch.WorkerPool
	// workers are the loopback worker servers behind pool; timing, when
	// set, is their instrumented handler's counters.
	workers []*httptest.Server
	timing  *wireTiming
}

func setupSharded(cfg config, seed int64, _ bool) (session, error) {
	return newSharded(cfg, seed)
}

func newSharded(cfg config, seed int64) (*shardedSession, error) {
	data, err := serialize(difficult(cfg.shardedSinks, seed))
	return &shardedSession{data: data, shards: cfg.shardedShards}, err
}

// remoteWorkers is the fleet size of remote-wire.
const remoteWorkers = 2

func setupRemote(cfg config, seed int64, timedWorkers bool) (session, error) {
	s, err := newSharded(cfg, seed)
	if err != nil {
		return nil, err
	}
	handler := wire.NewHandler(wire.ServerOptions{})
	if timedWorkers {
		s.timing = &wireTiming{}
		handler = s.timing.handler()
	}
	addrs := make([]string, remoteWorkers)
	for i := range addrs {
		srv := httptest.NewServer(handler)
		s.workers = append(s.workers, srv)
		addrs[i] = srv.URL
		if err := probe(srv.URL); err != nil {
			s.close()
			return nil, err
		}
	}
	if s.pool, err = dispatch.NewWorkerPool(addrs, dispatch.PoolOptions{}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// probe waits for a worker's first healthy answer.
func probe(url string) error {
	resp, err := http.Get(url + dispatch.PathHealthz)
	if err != nil {
		return fmt.Errorf("worker %s: %w", url, err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("worker %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker %s: health probe answered %s", url, resp.Status)
	}
	return nil
}

func (s *shardedSession) options(eng *obs.Trace) core.Options {
	return core.Options{Shards: s.shards, Pilot: true, Trace: eng}
}

func (s *shardedSession) cycle() int { return 1 }

func (s *shardedSession) op(_ int, tr *obs.Trace) (*opOut, error) {
	return routeInstance(s.data, tr, func(in *ctree.Instance, eng *obs.Trace) (*shard.Result, error) {
		return shard.BuildDispatch(in, s.options(eng), dispatch.Options{Remote: s.pool})
	})
}

// reference is the unsharded grouped build of the same instance; remote-wire
// must also reproduce the in-process sharded build bit for bit.
func (s *shardedSession) reference() (*reference, error) {
	in, err := instio.ReadInstance(bytes.NewReader(s.data))
	if err != nil {
		return nil, err
	}
	flat, err := core.Build(in, core.Options{})
	if err != nil {
		return nil, err
	}
	ref := &reference{wire: flat.Wirelength}
	if s.pool != nil {
		local, err := shard.BuildDispatch(in, s.options(nil), dispatch.Options{})
		if err != nil {
			return nil, err
		}
		fp := fingerprintOf(evaluate(local, in, nil))
		ref.identical = &fp
	}
	return ref, nil
}

func (s *shardedSession) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	for _, srv := range s.workers {
		srv.Close()
	}
}

// wireTiming is the worker side of remote-wire's traced pass: the three wire
// calls wire.NewHandler makes per build request, each timed, with bytes
// counted. Handlers run concurrently, so the counters are atomic.
type wireTiming struct {
	requests, requestBytes, responseBytes atomic.Int64
	decodeNS, executeNS, encodeNS         atomic.Int64
}

// wireCounts is a snapshot of wireTiming.
type wireCounts struct {
	requests, requestBytes, responseBytes float64
	decode, execute, encode               float64 // seconds
}

func (t *wireTiming) snapshot() wireCounts {
	if t == nil {
		return wireCounts{}
	}
	return wireCounts{
		requests:      float64(t.requests.Load()),
		requestBytes:  float64(t.requestBytes.Load()),
		responseBytes: float64(t.responseBytes.Load()),
		decode:        float64(t.decodeNS.Load()) / 1e9,
		execute:       float64(t.executeNS.Load()) / 1e9,
		encode:        float64(t.encodeNS.Load()) / 1e9,
	}
}

func (a wireCounts) minus(b wireCounts) wireCounts {
	return wireCounts{
		requests:      a.requests - b.requests,
		requestBytes:  a.requestBytes - b.requestBytes,
		responseBytes: a.responseBytes - b.responseBytes,
		decode:        a.decode - b.decode,
		execute:       a.execute - b.execute,
		encode:        a.encode - b.encode,
	}
}

// handler serves the worker endpoints with wire.NewHandler's status
// discipline: 400 undecodable, 422 build failure, 500 contained panic.
func (t *wireTiming) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(dispatch.PathHealthz, func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc(dispatch.PathBuild, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t.requests.Add(1)
		t.requestBytes.Add(int64(len(body)))
		start := time.Now()
		u, err := wire.DecodeWork(body)
		t.decodeNS.Add(int64(time.Since(start)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		start = time.Now()
		var res *wire.BuildResult
		err = dispatch.Protect("worker", func() error {
			var e error
			res, e = wire.Execute(u)
			return e
		})
		t.executeNS.Add(int64(time.Since(start)))
		if err != nil {
			status := http.StatusUnprocessableEntity
			var pe *dispatch.PanicError
			if errors.As(err, &pe) {
				status = http.StatusInternalServerError
			}
			http.Error(w, err.Error(), status)
			return
		}
		start = time.Now()
		data, err := res.Encode()
		t.encodeNS.Add(int64(time.Since(start)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		t.responseBytes.Add(int64(len(data)))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	})
	return mux
}

// ---- eco-chain ----

// ecoSession replays a fixed chain of seeded edit scripts against the cache
// of one retained sharded build: op i applies hop i mod len(scripts) to the
// cache the previous hop left, restarting from the retained build at hop 0.
type ecoSession struct {
	base    *shard.EcoCache
	scripts [][]byte
	final   *ctree.Instance // the instance after the whole chain
	shards  int
	cur     *shard.EcoCache
}

func setupEco(cfg config, seed int64, _ bool) (session, error) {
	in := difficult(cfg.ecoSinks, seed)
	res, err := shard.BuildEco(in, ecoOptions(cfg.ecoShards), dispatch.Options{})
	if err != nil {
		return nil, err
	}
	s := &ecoSession{base: res.Eco, shards: cfg.ecoShards}
	cur := in
	for h := 0; h < cfg.ecoHops; h++ {
		sc, err := instio.Perturb(cur, ecoEditFrac, seed+int64(h))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := instio.WriteEdits(&buf, sc); err != nil {
			return nil, err
		}
		s.scripts = append(s.scripts, buf.Bytes())
		if cur, _, err = sc.Apply(cur); err != nil {
			return nil, err
		}
	}
	s.final = cur
	return s, nil
}

func ecoOptions(shards int) core.Options {
	return core.Options{Shards: shards, Pilot: true}
}

func (s *ecoSession) cycle() int { return len(s.scripts) }

// op is one ECO hop. instio reads the edit script instead of an instance. A
// hop the cached contract cannot absorb (shard.ErrFullBuild) continues the
// chain from a full retained build of the edited instance and still fails.
func (s *ecoSession) op(i int, tr *obs.Trace) (*opOut, error) {
	h := i % len(s.scripts)
	if h == 0 {
		s.cur = s.base
	}
	rg := tr.Begin("instio.read")
	sc, err := instio.ReadEdits(bytes.NewReader(s.scripts[h]))
	rg.End()
	if err != nil {
		return nil, err
	}
	eng := tr.Child("engine")
	rg = tr.Begin("build")
	res, err := s.cur.RebuildDispatch(sc, shard.RebuildOptions{Trace: eng}, dispatch.Options{})
	rg.End()
	eng.Close()
	if errors.Is(err, shard.ErrFullBuild) {
		edited, _, aerr := sc.Apply(s.cur.Instance)
		if aerr != nil {
			return nil, aerr
		}
		full, ferr := shard.BuildEco(edited, ecoOptions(s.shards), dispatch.Options{})
		if ferr != nil {
			return nil, ferr
		}
		s.cur = full.Eco
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	s.cur = res.Eco
	out := evaluate(res, res.Instance, tr)
	out.inputBytes = len(s.scripts[h])
	return out, nil
}

// reference is a from-scratch sharded build of the chain's final instance:
// wire_ratio is then the drift the chain accumulated.
func (s *ecoSession) reference() (*reference, error) {
	res, err := shard.BuildDispatch(s.final, ecoOptions(s.shards), dispatch.Options{})
	if err != nil {
		return nil, err
	}
	return &reference{wire: res.Wirelength}, nil
}

func (s *ecoSession) close() {}
