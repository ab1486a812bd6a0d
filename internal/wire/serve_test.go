package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func postBuild(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "http://worker/build", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHandlerServesBuild(t *testing.T) {
	h := NewHandler(ServerOptions{})
	u, in := buildWork(t)
	body, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rec := postBuild(t, h, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body.String())
	}
	// The declared length is what lets the coordinator size its read.
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Errorf("Content-Length = %q, want %s", got, want)
	}
	res, err := DecodeResult(rec.Body.Bytes(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Root == nil || res.Root.Wirelength() <= 0 {
		t.Fatalf("implausible result: root=%v", res.Root)
	}
}

func TestHandlerRejectsGarbageWith400(t *testing.T) {
	h := NewHandler(ServerOptions{})
	for _, body := range [][]byte{nil, []byte("not a work unit"), []byte("ASTW\x00\x00")} {
		if rec := postBuild(t, h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("garbage body %q → %d, want 400", body, rec.Code)
		}
	}
}

func TestHandlerHealthz(t *testing.T) {
	h := NewHandler(ServerOptions{})
	req := httptest.NewRequest(http.MethodGet, "http://worker/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest(http.MethodPost, "http://worker/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", rec.Code)
	}
}

// TestHandlerContainsPanicAs500 pins the worker's survival contract: a
// panicking build answers 500 and the handler keeps serving.
func TestHandlerContainsPanicAs500(t *testing.T) {
	boom := func(u *WorkUnit) (*BuildResult, error) { panic("routing exploded") }
	h := newHandler(boom, ServerOptions{})
	u, _ := buildWork(t)
	body, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rec := postBuild(t, h, body)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking build = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "routing exploded") {
		t.Errorf("500 body does not name the panic: %q", rec.Body.String())
	}
	// The process (here: the handler) is still alive and healthy.
	req := httptest.NewRequest(http.MethodGet, "http://worker/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatal("handler dead after contained panic")
	}
}

func TestHandlerBuildErrorIs422(t *testing.T) {
	fail := func(u *WorkUnit) (*BuildResult, error) { return nil, errors.New("infeasible skew bound") }
	h := newHandler(fail, ServerOptions{})
	u, _ := buildWork(t)
	body, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rec := postBuild(t, h, body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("deterministic build failure = %d, want 422", rec.Code)
	}
}

// TestServerDrainsInFlightBuild pins graceful shutdown: Shutdown called while
// a stalled build is in flight must let that build finish and deliver 200.
func TestServerDrainsInFlightBuild(t *testing.T) {
	srv, err := NewWorkerServer("127.0.0.1:0", ServerOptions{Stall: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	u, _ := buildWork(t)
	body, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	var respErr error
	go func() {
		defer wg.Done()
		resp, err := http.Post(fmt.Sprintf("http://%s/build", srv.Addr()), "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			respErr = err
			return
		}
		code = resp.StatusCode
		resp.Body.Close()
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the stall window
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if respErr != nil {
		t.Fatalf("in-flight request dropped during drain: %v", respErr)
	}
	if code != http.StatusOK {
		t.Fatalf("in-flight build answered %d during drain, want 200", code)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
