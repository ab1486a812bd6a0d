package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The worker pool's health policy: the health loop probes every worker's
// /healthz each healthPeriod, one probe waiting at most healthTimeout; one
// build request waits at most requestTimeout (or the task context's earlier
// deadline); and blacklistAfter consecutive failures, requests and failed
// probes alike, blacklist a worker until a probe succeeds.
const (
	healthPeriod   = 2 * time.Second
	healthTimeout  = time.Second
	requestTimeout = 2 * time.Minute
	blacklistAfter = 3
)

// maxResponseBytes bounds a worker response read (a defensive cap far above
// any real subtree encoding, not a tuning knob).
const maxResponseBytes = 1 << 30

// maxPresize caps what a body's declared length may reserve before its bytes
// arrive, so a lying Content-Length cannot make a reader allocate its whole
// read limit up front; a longer body grows past it as it arrives.
const maxPresize = 64 << 20

// ReadBody reads r to EOF like io.ReadAll, into one buffer sized from the
// body's declared length n (an HTTP ContentLength, -1 when unknown) instead
// of one regrown as the bytes arrive. Callers bound r themselves.
func ReadBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		n = 512
	}
	// One byte past the body leaves room for the read that reports EOF.
	b := make([]byte, 0, min(n, maxPresize)+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// Worker HTTP endpoints, shared between the pool and the worker handler
// (internal/wire serves them; cmd/routeworker hosts that handler).
const (
	PathBuild   = "/build"
	PathHealthz = "/healthz"
)

// PoolOptions configures a WorkerPool. The health policy itself is fixed
// (see the constants above).
type PoolOptions struct {
	// Clock drives the health cadence (tests use a FakeClock); nil = wall.
	Clock Clock
}

// poolWorker is one worker endpoint's pool-side state, guarded by the
// pool's mutex.
type poolWorker struct {
	url      string
	inflight int
	fails    int // consecutive failures (requests and probes)
	black    bool
}

// WorkerPool tracks a fleet of routeworker endpoints: health, consecutive-
// failure blacklisting with probed reinstatement, and least-loaded worker
// selection. It is the fleet-state half of remote dispatch; RemoteRunner
// (built with Runner) is the per-phase transport over it. Safe for
// concurrent use; one pool is typically shared by every dispatched phase of
// a run.
type WorkerPool struct {
	clock  Clock
	client *http.Client

	mu      sync.Mutex
	workers []*poolWorker
	rr      int
	lost    int

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewWorkerPool builds a pool over the given worker addresses ("host:port"
// or full "http://..." URLs) and starts its health loop. Close releases it.
func NewWorkerPool(addrs []string, o PoolOptions) (*WorkerPool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dispatch: worker pool needs at least one worker address")
	}
	if o.Clock == nil {
		o.Clock = wallClock{}
	}
	p := &WorkerPool{
		clock:  o.Clock,
		client: &http.Client{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		u := strings.TrimSpace(a)
		if u == "" {
			return nil, fmt.Errorf("dispatch: empty worker address")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		u = strings.TrimRight(u, "/")
		if seen[u] {
			return nil, fmt.Errorf("dispatch: duplicate worker address %s", u)
		}
		seen[u] = true
		p.workers = append(p.workers, &poolWorker{url: u})
	}
	go p.healthLoop()
	return p, nil
}

// Close stops the health loop. Outstanding requests are unaffected.
func (p *WorkerPool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// Workers returns the fleet size.
func (p *WorkerPool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// Healthy returns the number of workers currently not blacklisted.
func (p *WorkerPool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if !w.black {
			n++
		}
	}
	return n
}

// WorkersLost returns the cumulative count of blacklist transitions (a
// reinstated worker that fails again counts again — each loss is an event).
func (p *WorkerPool) WorkersLost() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lost
}

// pick reserves the least-loaded healthy worker not in skip (round-robin
// among ties) and returns nil when none qualifies — the caller's cue to
// degrade to local execution. Pair every pick with a release.
func (p *WorkerPool) pick(skip map[*poolWorker]bool) *poolWorker {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.workers)
	var best *poolWorker
	for i := 0; i < n; i++ {
		w := p.workers[(p.rr+i)%n]
		if w.black || skip[w] {
			continue
		}
		if best == nil || w.inflight < best.inflight {
			best = w
		}
	}
	if best == nil {
		return nil
	}
	p.rr = (p.rr + 1) % n
	best.inflight++
	return best
}

func (p *WorkerPool) release(w *poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.inflight--
}

// succeed resets a worker's consecutive-failure count (and reinstates it if
// a concurrent path blacklisted it — a live worker is a healthy worker).
func (p *WorkerPool) succeed(w *poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.fails = 0
	w.black = false
}

// fail counts one failure against the worker, blacklisting it after
// blacklistAfter in a row.
func (p *WorkerPool) fail(w *poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.fails++
	if !w.black && w.fails >= blacklistAfter {
		w.black = true
		p.lost++
	}
}

// healthLoop probes the fleet every healthPeriod until Close.
func (p *WorkerPool) healthLoop() {
	defer close(p.done)
	t := p.clock.NewTimer(healthPeriod)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C():
			// A panicking probe round must not crash the process (the pool
			// outlives any single build): contain it and let the next tick
			// retry — worker state is simply one round staler.
			_ = Protect("healthloop", func() error { p.probeAll(); return nil })
			t.Reset(healthPeriod)
		}
	}
}

// probeAll GETs every worker's /healthz: a failure counts toward the
// blacklist like a request failure; a success resets the count and
// reinstates a blacklisted worker.
func (p *WorkerPool) probeAll() {
	p.mu.Lock()
	ws := append([]*poolWorker(nil), p.workers...)
	p.mu.Unlock()
	for _, w := range ws {
		if p.probe(w) {
			p.succeed(w)
		} else {
			p.fail(w)
		}
	}
}

func (p *WorkerPool) probe(w *poolWorker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+PathHealthz, nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// post sends one build request to w under the per-request deadline (the
// earlier of the task context's own deadline and requestTimeout) and
// returns the response body and status.
func (p *WorkerPool) post(ctx context.Context, w *poolWorker, body []byte) (data []byte, status int, err error) {
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url+PathBuild, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err = ReadBody(io.LimitReader(resp.Body, maxResponseBytes+1), resp.ContentLength)
	if err != nil {
		return nil, 0, err
	}
	if len(data) > maxResponseBytes {
		return nil, 0, fmt.Errorf("response exceeds %d bytes", maxResponseBytes)
	}
	return data, resp.StatusCode, nil
}

// RemoteConfig parameterizes one phase's remote transport.
type RemoteConfig struct {
	// Phase names the dispatch for FaultPlan net-fault coordinates and
	// error messages.
	Phase string
	// Encode serializes one task into the work-unit bytes POSTed to a
	// worker; Decode parses a worker's response into the task result the
	// pipeline expects. Both are supplied by the pipeline (internal/shard
	// closes them over internal/wire) so this package stays codec-agnostic.
	Encode func(t Task) ([]byte, error)
	Decode func(data []byte) (any, error)
	// Local is the in-process runner executions degrade to when no healthy
	// worker can take them. Required: graceful degradation is the contract,
	// not an option.
	Local Runner
	// Faults, when non-nil, supplies Drop/Corrupt net faults at
	// (Phase, task, attempt) coordinates.
	Faults *FaultPlan
}

// RemoteRunner executes tasks on the pool's workers over HTTP. Failure
// discipline, in order: an injected Drop returns a retryable error at once
// (the coordinator's retry machinery drives re-dispatch); a transport-level
// failure (connection refused/reset, request deadline) counts against the
// worker and fails over to the next healthy worker within the same
// execution; a worker 500 (contained handler panic) does the same; a worker
// 422 (deterministic build failure) returns an unmarked error, which fails
// the run fast; an undecodable response — corruption in transit, injected
// or real — returns a retryable error without blaming the worker. When no
// healthy worker remains for the execution, it transparently degrades to
// the Local runner and journals the fallback; the journal is folded into
// Report/trace after the run drains (observeRun, on the coordinator
// goroutine).
type RemoteRunner struct {
	pool     *WorkerPool
	cfg      RemoteConfig
	mu       sync.Mutex
	fbTasks  []Task
	lostBase int
}

// Runner builds the phase transport over the pool. cfg.Local and the codec
// callbacks are required.
func (p *WorkerPool) Runner(cfg RemoteConfig) (*RemoteRunner, error) {
	if cfg.Encode == nil || cfg.Decode == nil {
		return nil, fmt.Errorf("dispatch: RemoteConfig needs Encode and Decode")
	}
	if cfg.Local == nil {
		return nil, fmt.Errorf("dispatch: RemoteConfig needs a Local fallback runner")
	}
	if cfg.Phase == "" {
		cfg.Phase = "task"
	}
	return &RemoteRunner{pool: p, cfg: cfg, lostBase: p.WorkersLost()}, nil
}

// Run implements Runner.
func (r *RemoteRunner) Run(ctx context.Context, t Task) (any, error) {
	f, _ := r.cfg.Faults.at(r.cfg.Phase, t.Index, t.Attempt)
	var body []byte
	encoded := false
	var tried map[*poolWorker]bool
	for {
		w := r.pool.pick(tried)
		if w == nil {
			break
		}
		if f.Drop {
			// The injected connection drop: attributed to the picked worker
			// like a real drop would be, and retryable so the retry
			// machinery re-dispatches at the next attempt's coordinates.
			r.pool.release(w)
			r.pool.fail(w)
			return nil, MarkTransient(fmt.Errorf("dispatch: injected connection drop to %s (%s task %d attempt %d)",
				w.url, r.cfg.Phase, t.Index, t.Attempt))
		}
		if !encoded {
			var err error
			if body, err = r.cfg.Encode(t); err != nil {
				r.pool.release(w)
				// Encoding is deterministic; retrying replays the failure.
				return nil, fmt.Errorf("dispatch: encode %s task %d: %w", r.cfg.Phase, t.Index, err)
			}
			encoded = true
		}
		data, status, err := r.pool.post(ctx, w, body)
		r.pool.release(w)
		if err != nil {
			if ctx.Err() != nil {
				// The caller cancelled (a hedge's loser, a failed round):
				// the worker is not at fault, and the error is not masked.
				return nil, ctx.Err()
			}
			r.pool.fail(w)
			if tried == nil {
				tried = map[*poolWorker]bool{}
			}
			tried[w] = true
			continue // fail over to the next healthy worker
		}
		switch status {
		case http.StatusOK:
			r.pool.succeed(w)
			if f.Corrupt {
				data = corruptResponse(data)
			}
			out, err := r.cfg.Decode(data)
			if err != nil {
				return nil, MarkTransient(fmt.Errorf("dispatch: undecodable response from %s (%s task %d attempt %d): %w",
					w.url, r.cfg.Phase, t.Index, t.Attempt, err))
			}
			return out, nil
		case http.StatusUnprocessableEntity:
			// The worker is fine; the build itself failed deterministically.
			r.pool.succeed(w)
			return nil, fmt.Errorf("dispatch: worker %s: %s", w.url, strings.TrimSpace(string(data)))
		default:
			// A contained worker panic (500) or other server-side trouble.
			r.pool.fail(w)
			if tried == nil {
				tried = map[*poolWorker]bool{}
			}
			tried[w] = true
			continue
		}
	}
	// Graceful degradation: no healthy worker could take the task. The
	// build completes locally; the journaled fallback surfaces on the
	// report and trace after the run drains.
	r.mu.Lock()
	r.fbTasks = append(r.fbTasks, t)
	r.mu.Unlock()
	return r.cfg.Local.Run(ctx, t)
}

// corruptResponse flips bits spread through the payload so decoding fails
// (at worst the trailing checksum catches it).
func corruptResponse(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	step := len(out)/8 + 1
	for i := 0; i < len(out); i += step {
		out[i] ^= 0xA5
	}
	return out
}

// observeRun implements runObserver: it folds the run's journaled
// degradation events into the report and emits the matching metrics and
// event spans. Run (dispatch.go) calls it once after the drain, on the
// coordinator goroutine — the only goroutine allowed to touch the trace.
func (r *RemoteRunner) observeRun(rep *Report, tr *obs.Trace) {
	r.mu.Lock()
	fbs := r.fbTasks
	r.fbTasks = nil
	r.mu.Unlock()
	lost := r.pool.WorkersLost() - r.lostBase
	r.lostBase += lost

	rep.RemoteFallbacks += len(fbs)
	rep.WorkersLost += lost
	for _, t := range fbs {
		tr.Metric(obs.MetricDispatchRemoteFallbacks, 1)
		tr.Begin("dispatch_remote_fallback").
			Attr("task", float64(t.Index)).
			Attr("attempt", float64(t.Attempt)).End()
	}
	if lost > 0 {
		tr.Metric(obs.MetricDispatchWorkersLost, float64(lost))
		tr.Begin("dispatch_worker_lost").Attr("count", float64(lost)).End()
	}
}
