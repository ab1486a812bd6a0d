package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dispatch"
)

// maxRequestBytes bounds one work-unit upload (a defensive cap, far above
// any real instance encoding).
const maxRequestBytes = 1 << 30

// ServerOptions configures a worker endpoint.
type ServerOptions struct {
	// Stall, when positive, sleeps that long after decoding each work unit
	// and before executing it. It exists for fault drills: a stalled worker
	// gives a test (or the CI remote job) a deterministic window in which
	// to SIGKILL the process mid-build and exercise the coordinator's
	// failover path. Zero in production.
	Stall time.Duration
}

// NewHandler returns the worker HTTP handler:
//
//	GET  /healthz — liveness, probed by dispatch.WorkerPool
//	POST /build   — one work unit in, one build result out
//
// Status discipline (the contract dispatch.RemoteRunner keys off):
// 400 undecodable request; 422 deterministic build failure (the worker is
// healthy — retrying elsewhere reproduces it); 500 contained handler panic.
// A panic in the build never crashes the worker process.
func NewHandler(o ServerOptions) http.Handler {
	return newHandler(Execute, o)
}

// newHandler takes the executor as a parameter so tests can inject panicking
// or failing builds without constructing poisoned work units.
func newHandler(exec func(*WorkUnit) (*BuildResult, error), o ServerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(dispatch.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "healthz is GET", http.StatusMethodNotAllowed)
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc(dispatch.PathBuild, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "build is POST", http.StatusMethodNotAllowed)
			return
		}
		body, err := dispatch.ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength)
		if err != nil {
			http.Error(w, fmt.Sprintf("read request: %v", err), http.StatusBadRequest)
			return
		}
		u, err := DecodeWork(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if o.Stall > 0 {
			t := time.NewTimer(o.Stall) //lint:nondet-ok Stall is test-only fault injection; request timing never reaches the encoded bytes
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		var res *BuildResult
		err = dispatch.Protect("worker", func() error {
			var e error
			res, e = exec(u)
			return e
		})
		if err != nil {
			var pe *dispatch.PanicError
			if errors.As(err, &pe) {
				// The panic is contained — the process survives — but the
				// request failed for a server-side reason, so the pool
				// counts it against this worker.
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		out, err := res.Encode()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// A declared length lets the coordinator read the result into one
		// buffer of its size; without it the response would go out chunked.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		w.Write(out)
	})
	return mux
}

// WorkerServer hosts the worker handler on a TCP listener; cmd/routeworker
// wraps it with signal handling, and tests run it in-process.
type WorkerServer struct {
	ln  net.Listener
	srv *http.Server
}

// NewWorkerServer listens on addr (e.g. "127.0.0.1:0") and prepares the
// server; Serve starts it.
func NewWorkerServer(addr string, o ServerOptions) (*WorkerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &WorkerServer{ln: ln, srv: &http.Server{Handler: NewHandler(o)}}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *WorkerServer) Addr() string { return s.ln.Addr().String() }

// Serve blocks serving requests until Shutdown (returning
// http.ErrServerClosed) or a listener error.
func (s *WorkerServer) Serve() error { return s.srv.Serve(s.ln) }

// Shutdown drains gracefully: the listener closes immediately, in-flight
// builds run to completion (or until ctx expires), then Serve returns.
func (s *WorkerServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
