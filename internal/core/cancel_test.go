package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestBuildPreCancelledContext pins the cancellation contract at its
// sharpest: a context that is already dead aborts the build on its very
// first merge round, with an error that names the cancellation and unwraps
// to the context's own error. No partial tree leaks out.
func TestBuildPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := bench.Small(400, 3)
	res, err := Build(in, Options{SingleGroup: true, Ctx: ctx})
	if err == nil {
		t.Fatal("build under a dead context returned nil error")
	}
	if res != nil {
		t.Errorf("cancelled build leaked a result: %+v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
}

// TestBuildCancellationMidBuild cancels a 10k route mid-flight and requires
// the builder to notice within one merge round — promptly, not after
// finishing the instance. The generous wall bound only guards against a
// build that ignored the context entirely (a clean 10k route takes well
// under it, so the test stays meaningful on slow CI).
func TestBuildCancellationMidBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	in := bench.Small(10_000, 9)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Build(in, Options{SingleGroup: true, Ctx: ctx})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("mid-build cancel returned %v, want context.Canceled (or a clean finish)", err)
		}
		t.Logf("returned %v after %v", err, time.Since(start))
	case <-time.After(30 * time.Second):
		t.Fatal("build did not return within 30s of cancellation")
	}
}

// TestBuildDeadlineExceeded arms a deadline that cannot be met and checks
// the error is the deadline's, so -timeout callers can map it to a clean
// diagnosis via errors.Is.
func TestBuildDeadlineExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	in := bench.Small(10_000, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := Build(in, Options{SingleGroup: true, Ctx: ctx})
	if err == nil {
		t.Skip("10k route beat a 5ms deadline; machine too fast for this guard")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
}

// TestBuildBackgroundContextFree pins that a nil or Background context takes
// the zero-cost path: the builder caches a nil done channel and the per-round
// check is a single nil comparison (the allocation side is pinned by the
// repo-level TestRouteAllocBudget).
func TestBuildBackgroundContextFree(t *testing.T) {
	in := bench.Small(200, 5)
	for _, ctx := range []context.Context{nil, context.Background()} {
		if ch := doneOf(ctx); ch != nil {
			t.Errorf("doneOf(%v) = %v, want nil", ctx, ch)
		}
		if _, err := Build(in, Options{SingleGroup: true, Ctx: ctx}); err != nil {
			t.Errorf("ctx=%v: %v", ctx, err)
		}
	}
}
