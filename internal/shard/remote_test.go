package shard

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/wire"
)

// startWorkers boots n in-process routeworker endpoints and returns their
// listen addresses; they shut down with the test.
func startWorkers(t *testing.T, n int, o wire.ServerOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := wire.NewWorkerServer("127.0.0.1:0", o)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		addrs[i] = srv.Addr()
	}
	return addrs
}

func remotePool(t *testing.T, o dispatch.PoolOptions, addrs ...string) *dispatch.WorkerPool {
	t.Helper()
	p, err := dispatch.NewWorkerPool(addrs, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func assertIdentical(t *testing.T, label string, got, ref *Result, in *ctree.Instance) {
	t.Helper()
	wb, rb := math.Float64bits(got.Wirelength), math.Float64bits(ref.Wirelength)
	if wb != rb {
		t.Errorf("%s: wirelength bits 0x%016x (%v), want 0x%016x (%v)",
			label, wb, got.Wirelength, rb, ref.Wirelength)
	}
	if gh, rh := delayDigest(t, got.Root, in), delayDigest(t, ref.Root, in); gh != rh {
		t.Errorf("%s: delay digest 0x%016x, want 0x%016x", label, gh, rh)
	}
	if got.Stats != ref.Stats {
		t.Errorf("%s: stats %+v, want %+v", label, got.Stats, ref.Stats)
	}
}

// TestRemoteShardedBitwiseIdentical is the tentpole acceptance test: a
// grouped piloted 10k build whose shard and pilot tasks travel over HTTP to
// localhost workers must be bitwise-identical to the all-in-process build.
// Location transparency is only real if the wire adds nothing and loses
// nothing.
func TestRemoteShardedBitwiseIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	in := groupedInstance("uniform", 10_000, 4)
	addrs := startWorkers(t, 2, wire.ServerOptions{})
	for _, k := range []int{2, 4, 8} {
		opt := core.Options{Shards: k, Pilot: true}
		ref, err := Build(in, opt)
		if err != nil {
			t.Fatalf("shards=%d: local: %v", k, err)
		}
		pool := remotePool(t, dispatch.PoolOptions{}, addrs...)
		got, err := BuildDispatch(in, opt, dispatch.Options{Remote: pool})
		if err != nil {
			t.Fatalf("shards=%d: remote: %v", k, err)
		}
		assertIdentical(t, "remote", got, ref, in)
		d := got.Dispatch
		if d.RemoteFallbacks != 0 {
			t.Errorf("shards=%d: %d fallbacks with a healthy fleet", k, d.RemoteFallbacks)
		}
		t.Logf("shards=%d: %+v", k, d)
	}
}

// TestRemoteUnitsShipOnlyTheirSinks pins what a remote build sends: each
// work unit of a piloted 8-shard build, pilot patches included, encodes in
// under 0.2× the bytes of one that carries every sink of the instance, and
// the build is still bitwise the in-process one.
func TestRemoteUnitsShipOnlyTheirSinks(t *testing.T) {
	in := groupedInstance("uniform", 4_000, 4)
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := (&wire.WorkUnit{Kind: wire.KindBuild, Sinks: in.SinkList(nil), NumGroups: in.NumGroups,
		Source: in.Source, Registry: reg.Snapshot()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sizes []int
	worker := wire.NewHandler(wire.ServerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == dispatch.PathBuild {
			mu.Lock()
			sizes = append(sizes, int(r.ContentLength))
			mu.Unlock()
		}
		worker.ServeHTTP(w, r)
	}))
	defer srv.Close()
	opt := core.Options{Shards: 8, Pilot: true}
	ref, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildDispatch(in, opt, dispatch.Options{Remote: remotePool(t, dispatch.PoolOptions{}, srv.URL)})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "remote", got, ref, in)
	if got.Dispatch.RemoteFallbacks != 0 || len(sizes) < 8 {
		t.Fatalf("%d requests and %d fallbacks, want every sub-build remote", len(sizes), got.Dispatch.RemoteFallbacks)
	}
	for i, n := range sizes {
		if 5*n >= len(whole) {
			t.Errorf("request %d of %d bytes, want under 0.2× the whole instance's %d", i, n, len(whole))
		}
	}
	t.Logf("%d requests of %v bytes; the whole instance takes %d", len(sizes), sizes, len(whole))
}

// TestRemoteWorkerKilledMidBuildBitwise kills one of two workers while its
// build is in flight (connections torn down mid-request, the in-process
// equivalent of SIGKILL). The dropped request must fail over to the
// surviving worker inside the same execution and the result must not move.
func TestRemoteWorkerKilledMidBuildBitwise(t *testing.T) {
	in := groupedInstance("uniform", 2_000, 4)
	opt := core.Options{Shards: 2, Pilot: true}
	ref, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The victim stalls each build long enough for the kill to land mid-flight.
	victim := httptest.NewServer(wire.NewHandler(wire.ServerOptions{Stall: 200 * time.Millisecond}))
	survivor := httptest.NewServer(wire.NewHandler(wire.ServerOptions{}))
	defer survivor.Close()
	pool := remotePool(t, dispatch.PoolOptions{}, victim.URL, survivor.URL)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(80 * time.Millisecond)
		victim.CloseClientConnections()
		victim.Close()
	}()
	got, err := BuildDispatch(in, opt, dispatch.Options{Remote: pool})
	<-done
	if err != nil {
		t.Fatalf("build did not survive the worker kill: %v", err)
	}
	assertIdentical(t, "after kill", got, ref, in)
	if got.Dispatch.RemoteFallbacks != 0 {
		t.Errorf("fell back to in-process %d times despite a surviving worker", got.Dispatch.RemoteFallbacks)
	}
	t.Logf("dispatch: %+v", got.Dispatch)
}

// TestRemoteFleetDownFallsBackBitwise points the pool at a dead port: every
// task must degrade transparently to the in-process runner, the result must
// be bitwise-identical, and the degradation must be observable — report
// counters and trace metrics both.
func TestRemoteFleetDownFallsBackBitwise(t *testing.T) {
	in := groupedInstance("uniform", 2_000, 4)
	opt := core.Options{Shards: 2, Pilot: true}
	ref, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(wire.NewHandler(wire.ServerOptions{}))
	deadURL := dead.URL
	dead.Close() // the port now refuses connections
	pool := remotePool(t, dispatch.PoolOptions{}, deadURL)
	tr := obs.New("fleet-down")
	optTr := opt
	optTr.Trace = tr
	got, err := BuildDispatch(in, optTr, dispatch.Options{Remote: pool})
	tr.Close()
	if err != nil {
		t.Fatalf("build did not degrade gracefully: %v", err)
	}
	assertIdentical(t, "fleet down", got, ref, in)
	d := got.Dispatch
	if d.RemoteFallbacks == 0 {
		t.Error("no remote fallbacks reported with the whole fleet down")
	}
	if d.WorkersLost == 0 {
		t.Error("no workers reported lost after blacklisting the only worker")
	}
	if v, ok := tr.MetricValue(obs.MetricDispatchRemoteFallbacks); !ok || int(v) != d.RemoteFallbacks {
		t.Errorf("trace %s = %v (ok=%v), report says %d", obs.MetricDispatchRemoteFallbacks, v, ok, d.RemoteFallbacks)
	}
	if v, ok := tr.MetricValue(obs.MetricDispatchWorkersLost); !ok || v < 1 {
		t.Errorf("trace %s = %v (ok=%v), want ≥ 1", obs.MetricDispatchWorkersLost, v, ok)
	}
	t.Logf("dispatch: %+v", d)
}

// TestRemoteRejectedOptionsKeepWorkers checks that options core rejects fail
// the build before anything is dispatched. A routeworker answers 400 to a
// non-finite IntraSkewBound, which the pool counts against the worker; the
// core error must surface instead, with no worker lost, and the next valid
// build on the pool must still run remotely.
func TestRemoteRejectedOptionsKeepWorkers(t *testing.T) {
	in := groupedInstance("uniform", 2_000, 4)
	pool := remotePool(t, dispatch.PoolOptions{}, startWorkers(t, 2, wire.ServerOptions{})...)
	opt := core.Options{Shards: 4, Pilot: true, IntraSkewBound: math.NaN()}
	_, err := BuildDispatch(in, opt, dispatch.Options{Remote: pool})
	if err == nil || !strings.Contains(err.Error(), "core: IntraSkewBound") {
		t.Fatalf("IntraSkewBound NaN: err = %v, want core's rejection", err)
	}
	if lost, healthy := pool.WorkersLost(), pool.Healthy(); lost != 0 || healthy != 2 {
		t.Fatalf("after the rejected build: %d workers lost, %d of 2 healthy", lost, healthy)
	}
	opt.IntraSkewBound = 0
	res, err := BuildDispatch(in, opt, dispatch.Options{Remote: pool})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Dispatch; d.RemoteFallbacks != 0 || d.WorkersLost != 0 {
		t.Errorf("next valid build: %+v, want no fallbacks and no lost workers", d)
	}
}

// TestRemoteNetFaultsBitwise injects the network fault family — dropped
// requests and corrupted responses — through the chaos plan and checks the
// coordinator's retry machinery absorbs them without moving the output.
func TestRemoteNetFaultsBitwise(t *testing.T) {
	in := groupedInstance("uniform", 2_000, 4)
	opt := core.Options{Shards: 2}
	ref, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startWorkers(t, 2, wire.ServerOptions{})
	plan := (&dispatch.FaultPlan{}).
		DropAt("shard", 0, 0).
		CorruptAt("shard", 1, 0)
	pool := remotePool(t, dispatch.PoolOptions{}, addrs...)
	got, err := BuildDispatch(in, opt, dispatch.Options{Faults: plan, Remote: pool})
	if err != nil {
		t.Fatalf("build under net faults: %v", err)
	}
	assertIdentical(t, "net faults", got, ref, in)
	d := got.Dispatch
	if d.FaultsInjected < 2 {
		t.Errorf("FaultsInjected = %d, want ≥ 2", d.FaultsInjected)
	}
	if d.Retries < 2 {
		t.Errorf("Retries = %d, want ≥ 2 (each net fault costs one attempt)", d.Retries)
	}
	if d.RemoteFallbacks != 0 {
		t.Errorf("net faults caused %d in-process fallbacks; they must be retried remotely", d.RemoteFallbacks)
	}
	t.Logf("dispatch: %+v", d)
}

// TestRemoteNetChaosSeeds layers seeded network faults over seeded local
// faults — both families at once, as `astdme -chaos -workers` does — on a
// small grouped piloted build across several seeds.
func TestRemoteNetChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	in := groupedInstance("uniform", 800, 4)
	opt := core.Options{Shards: 2, Pilot: true}
	ref, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startWorkers(t, 2, wire.ServerOptions{})
	n := seededPlanTasks(2)
	for seed := int64(1); seed <= 3; seed++ {
		plan := dispatch.SeededPlan(seed, n, time.Millisecond, "pilot", "shard").
			Merge(dispatch.SeededNetPlan(seed, n, "pilot", "shard"))
		pool := remotePool(t, dispatch.PoolOptions{}, addrs...)
		got, err := BuildDispatch(in, opt, dispatch.Options{Faults: plan, Remote: pool})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertIdentical(t, "chaos", got, ref, in)
		if got.Dispatch.FaultsInjected == 0 {
			t.Errorf("seed %d: merged chaos plan (%d coords) injected nothing", seed, plan.Len())
		}
	}
}
