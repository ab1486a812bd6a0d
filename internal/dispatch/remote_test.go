package dispatch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// testWorker is a minimal worker endpoint: healthy unless told otherwise,
// answering /build with a canned body and status.
type testWorker struct {
	srv     *httptest.Server
	healthy atomic.Bool
	status  atomic.Int32
	body    atomic.Value // string
	builds  atomic.Int32
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	w := &testWorker{}
	w.healthy.Store(true)
	w.status.Store(http.StatusOK)
	w.body.Store("result")
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealthz, func(rw http.ResponseWriter, r *http.Request) {
		if !w.healthy.Load() {
			http.Error(rw, "down", http.StatusServiceUnavailable)
			return
		}
		rw.Write([]byte("ok\n"))
	})
	mux.HandleFunc(PathBuild, func(rw http.ResponseWriter, r *http.Request) {
		w.builds.Add(1)
		st := int(w.status.Load())
		if st != http.StatusOK {
			http.Error(rw, "nope", st)
			return
		}
		rw.Write([]byte(w.body.Load().(string)))
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func testPool(t *testing.T, o PoolOptions, urls ...string) *WorkerPool {
	t.Helper()
	if o.Clock == nil {
		// Keep the background health loop out of the way unless a test
		// drives it explicitly through its own fake clock.
		o.Clock = NewFakeClock()
	}
	p, err := NewWorkerPool(urls, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func echoConfig(local Runner) RemoteConfig {
	return RemoteConfig{
		Phase:  "t",
		Encode: func(tk Task) ([]byte, error) { return []byte("work"), nil },
		Decode: func(data []byte) (any, error) {
			if string(data) != "result" {
				return nil, errors.New("garbled")
			}
			return "remote", nil
		},
		Local: local,
	}
}

func localConst(v any) Runner {
	return RunnerFunc(func(ctx context.Context, tk Task) (any, error) { return v, nil })
}

func TestRemoteRunnerExecutesRemotely(t *testing.T) {
	w := newTestWorker(t)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background(), Task{})
	if err != nil {
		t.Fatal(err)
	}
	if out.(string) != "remote" {
		t.Fatalf("out = %v, want remote execution", out)
	}
	if w.builds.Load() != 1 {
		t.Fatalf("worker saw %d builds, want 1", w.builds.Load())
	}
}

// TestRemoteRunnerFailsOverWithinOneExecution pins intra-execution failover:
// a dead first worker must not consume a coordinator retry — the same Run
// call walks to the next healthy worker.
func TestRemoteRunnerFailsOverWithinOneExecution(t *testing.T) {
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close() // the port now refuses connections
	live := newTestWorker(t)
	p := testPool(t, PoolOptions{}, deadURL, live.srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		out, err := r.Run(context.Background(), Task{Index: i})
		if err != nil {
			t.Fatal(err)
		}
		if out.(string) != "remote" {
			t.Fatalf("task %d fell back to %v despite a healthy worker", i, out)
		}
	}
}

func TestRemoteRunnerFallsBackWhenFleetDown(t *testing.T) {
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()
	p := testPool(t, PoolOptions{}, deadURL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background(), Task{Index: 2, Attempt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.(string) != "local" {
		t.Fatalf("out = %v, want graceful local fallback", out)
	}
	// The journaled fallback folds into the report and trace on observe.
	var rep Report
	tr := obs.New("t")
	r.observeRun(&rep, tr)
	tr.Close()
	if rep.RemoteFallbacks != 1 {
		t.Fatalf("RemoteFallbacks = %d, want 1", rep.RemoteFallbacks)
	}
	if got, _ := tr.MetricValue(obs.MetricDispatchRemoteFallbacks); got != 1 {
		t.Fatalf("trace metric %s = %v, want 1", obs.MetricDispatchRemoteFallbacks, got)
	}
	// A second observe must not double-count.
	r.observeRun(&rep, nil)
	if rep.RemoteFallbacks != 1 {
		t.Fatalf("RemoteFallbacks after re-observe = %d, want 1", rep.RemoteFallbacks)
	}
}

func TestRemoteRunner422IsPermanent(t *testing.T) {
	w := newTestWorker(t)
	w.status.Store(http.StatusUnprocessableEntity)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), Task{})
	if err == nil {
		t.Fatal("422 returned no error")
	}
	if retryable(err) {
		t.Fatalf("422 error %v is retryable, want fail-fast (deterministic build failure)", err)
	}
	// A deterministic failure does not blame the worker.
	if p.Healthy() != 1 {
		t.Fatalf("healthy = %d after 422, want 1", p.Healthy())
	}
}

func TestRemoteRunnerCorruptResponseIsTransient(t *testing.T) {
	w := newTestWorker(t)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	cfg := echoConfig(localConst("local"))
	cfg.Faults = (&FaultPlan{}).CorruptAt("t", 0, 0)
	r, err := p.Runner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), Task{Index: 0, Attempt: 0})
	if err == nil {
		t.Fatal("corrupted response decoded cleanly")
	}
	if !retryable(err) {
		t.Fatalf("undecodable response error %v is not retryable", err)
	}
	// The next attempt has no fault coordinate and succeeds remotely.
	out, err := r.Run(context.Background(), Task{Index: 0, Attempt: 1})
	if err != nil || out.(string) != "remote" {
		t.Fatalf("clean attempt = (%v, %v), want remote success", out, err)
	}
}

func TestRemoteRunnerDropFaultIsTransient(t *testing.T) {
	w := newTestWorker(t)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	cfg := echoConfig(localConst("local"))
	cfg.Faults = (&FaultPlan{}).DropAt("t", 1, 0)
	r, err := p.Runner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), Task{Index: 1, Attempt: 0})
	if err == nil || !retryable(err) {
		t.Fatalf("injected drop = %v, want a retryable error", err)
	}
	if w.builds.Load() != 0 {
		t.Fatal("injected drop reached the worker")
	}
}

// TestRemoteRunnerCancelDoesNotBlameWorker pins that a request cut short by
// its own caller — a hedge's losing duplicate, or a round that failed
// elsewhere — counts no failure against the worker serving it: blamed
// cancellations would add up to a blacklisted healthy worker and push later
// tasks onto the in-process fallback.
func TestRemoteRunnerCancelDoesNotBlameWorker(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		started <- struct{}{}
		<-release // stall until the test is done
	}))
	defer srv.Close()
	defer close(release)
	p := testPool(t, PoolOptions{}, srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	if _, err := r.Run(ctx, Task{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
	}
	p.mu.Lock()
	fails := p.workers[0].fails
	p.mu.Unlock()
	if fails != 0 || p.Healthy() != 1 || p.WorkersLost() != 0 {
		t.Fatalf("after a cancelled request: consecutive failures = %d, healthy = %d, lost = %d; want 0, 1, 0",
			fails, p.Healthy(), p.WorkersLost())
	}
}

// TestPoolBlacklistAndReinstate drives the health loop on a fake clock
// through a worker's death (three failed probes) and recovery.
func TestPoolBlacklistAndReinstate(t *testing.T) {
	w := newTestWorker(t)
	clk := NewFakeClock()
	p := testPool(t, PoolOptions{Clock: clk}, w.srv.URL)
	waitHealthy := func(want int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if p.Healthy() == want {
				return
			}
			clk.Advance(healthPeriod)
			time.Sleep(2 * time.Millisecond) // the probe itself is real I/O
		}
		t.Fatalf("healthy = %d, want %d", p.Healthy(), want)
	}
	if p.Healthy() != 1 {
		t.Fatalf("healthy = %d at start", p.Healthy())
	}
	w.healthy.Store(false)
	waitHealthy(0)
	if p.WorkersLost() != 1 {
		t.Fatalf("WorkersLost = %d after blacklist, want 1", p.WorkersLost())
	}
	w.healthy.Store(true)
	waitHealthy(1)
	if p.WorkersLost() != 1 {
		t.Fatalf("WorkersLost = %d after reinstatement, want 1 (losses are events, not state)", p.WorkersLost())
	}
}

func TestPoolRejectsBadAddresses(t *testing.T) {
	if _, err := NewWorkerPool(nil, PoolOptions{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewWorkerPool([]string{"a:1", "a:1"}, PoolOptions{}); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := NewWorkerPool([]string{" "}, PoolOptions{}); err == nil {
		t.Error("blank address accepted")
	}
	p, err := NewWorkerPool([]string{"127.0.0.1:9"}, PoolOptions{Clock: NewFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !strings.HasPrefix(p.workers[0].url, "http://") {
		t.Errorf("bare host:port not normalized: %s", p.workers[0].url)
	}
}

// TestReadBody: a body of declared length is read into one buffer of that
// size; an undeclared one still reads whole; and a declared length past
// maxPresize reserves no more than maxPresize before the bytes arrive.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("wire"), 64<<10)
	r := bytes.NewReader(body)
	var got []byte
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(body)
		var err error
		if got, err = ReadBody(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, body) || allocs != 1 {
		t.Errorf("declared length: %d bytes in %.0f allocations, want %d in 1", len(got), allocs, len(body))
	}
	if got, err := ReadBody(bytes.NewReader(body), -1); err != nil || !bytes.Equal(got, body) {
		t.Errorf("undeclared length: %d bytes, err %v", len(got), err)
	}
	got, err := ReadBody(strings.NewReader("abc"), 1<<40)
	if err != nil || string(got) != "abc" {
		t.Fatalf("lying length: %q, err %v", got, err)
	}
	if cap(got) > maxPresize+1 {
		t.Errorf("lying length reserved %d bytes, want at most %d", cap(got), maxPresize+1)
	}
}
