package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/wire"
)

// TestMain lets the test binary stand in for the routeworker executable:
// invoked with ROUTEWORKER_MAIN=1 it runs main() instead of the tests, so
// the process-level contracts (SIGTERM drain, exit codes) are tested on the
// real binary semantics without building a second artifact.
func TestMain(m *testing.M) {
	if os.Getenv("ROUTEWORKER_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startWorkerProc execs this test binary as a routeworker and returns the
// process and its bound address (parsed from the "listening on" line).
func startWorkerProc(t *testing.T, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ROUTEWORKER_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("worker printed nothing (stderr: %s)", stderr.String())
	}
	line := sc.Text()
	addr, ok := strings.CutPrefix(line, "listening on ")
	if !ok {
		t.Fatalf("unexpected first line %q", line)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained past the first line
	return cmd, addr, &stderr
}

func waitExit(t *testing.T, cmd *exec.Cmd, within time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("wait: %v", err)
	case <-time.After(within):
		t.Fatalf("worker did not exit within %v", within)
	}
	return -1
}

// TestWorkerServesAndDrainsOnSIGTERM is the process-level drain contract:
// SIGTERM while a stalled build is in flight must let the build finish,
// answer it 200, and exit 0.
func TestWorkerServesAndDrainsOnSIGTERM(t *testing.T) {
	cmd, addr, stderr := startWorkerProc(t, "-stall", "300ms", "-drain", "10s")

	in := bench.Small(60, 5)
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := &wire.WorkUnit{
		Sinks:     in.SinkList(nil),
		NumGroups: in.NumGroups,
		Source:    in.Source,
		Registry:  reg.Snapshot(),
	}
	body, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}

	type resp struct {
		code int
		err  error
	}
	got := make(chan resp, 1)
	go func() {
		r, err := http.Post(fmt.Sprintf("http://%s/build", addr), "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			got <- resp{err: err}
			return
		}
		defer r.Body.Close()
		io.Copy(io.Discard, r.Body)
		got <- resp{code: r.StatusCode}
	}()
	time.Sleep(100 * time.Millisecond) // request enters the stall window
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight build dropped during drain: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight build answered %d during drain, want 200", r.code)
	}
	if code := waitExit(t, cmd, 10*time.Second); code != 0 {
		t.Fatalf("worker exited %d after graceful drain (stderr: %s)", code, stderr.String())
	}
}

// TestWorkerExitsZeroOnIdleSIGTERM pins the trivial rollover path.
func TestWorkerExitsZeroOnIdleSIGTERM(t *testing.T) {
	cmd, addr, stderr := startWorkerProc(t)
	r, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", r.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd, 10*time.Second); code != 0 {
		t.Fatalf("idle worker exited %d (stderr: %s)", code, stderr.String())
	}
}

// TestWorkerRejectsPositionalArgs pins the CLI surface.
func TestWorkerRejectsPositionalArgs(t *testing.T) {
	cmd := exec.Command(os.Args[0], "extra")
	cmd.Env = append(os.Environ(), "ROUTEWORKER_MAIN=1")
	if err := cmd.Run(); err == nil {
		t.Fatal("positional args accepted")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2", err)
	}
}

// TestWorkerSurvivesBadRequest drives a poisoned request through the real
// process: it must be refused (400) without taking the worker down. (Panic
// containment inside a decoded build is pinned at the handler level in
// internal/wire, where a panicking executor can be injected.)
func TestWorkerSurvivesBadRequest(t *testing.T) {
	cmd, addr, _ := startWorkerProc(t)
	r, err := http.Post(fmt.Sprintf("http://%s/build", addr), "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage = %d, want 400", r.StatusCode)
	}
	r, err = http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatalf("worker died after bad request: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bad request = %d", r.StatusCode)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	waitExit(t, cmd, 10*time.Second)
}
