package dispatch

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestFakeClockAdvanceFiresInDeadlineOrder(t *testing.T) {
	c := NewFakeClock()
	t1 := c.NewTimer(3 * time.Second)
	t2 := c.NewTimer(time.Second)
	if got := c.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	c.Advance(2 * time.Second)
	select {
	case <-t2.C():
	default:
		t.Fatal("t2 (1s) did not fire after Advance(2s)")
	}
	select {
	case <-t1.C():
		t.Fatal("t1 (3s) fired after Advance(2s)")
	default:
	}
	c.Advance(2 * time.Second)
	select {
	case <-t1.C():
	default:
		t.Fatal("t1 (3s) did not fire after Advance(4s total)")
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("pending = %d, want 0", got)
	}
}

func TestFakeClockTimerSemantics(t *testing.T) {
	c := NewFakeClock()
	tm := c.NewTimer(time.Second)
	// Stop on a pending timer reports true and prevents firing.
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	c.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	// Stop on an already-fired timer reports false (time.Timer contract);
	// the fired value stays in the channel until drained.
	tm.Reset(time.Second)
	c.Advance(time.Second)
	if tm.Stop() {
		t.Fatal("Stop on fired timer = true")
	}
	select {
	case <-tm.C():
	default:
		t.Fatal("fired value lost")
	}
	// Reset re-arms relative to the current fake now.
	tm.Reset(time.Minute)
	c.Advance(59 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("reset timer fired early")
	default:
	}
	c.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire at its deadline")
	}
}

func TestFakeClockAutoAdvance(t *testing.T) {
	c := NewFakeClock()
	c.SetAutoAdvance(true)
	before := c.Now()
	tm := c.NewTimer(time.Hour)
	select {
	case <-tm.C():
	default:
		t.Fatal("auto-advance did not fire the timer on arming")
	}
	if got := c.Now().Sub(before); got != time.Hour {
		t.Fatalf("auto-advance moved the clock by %v, want 1h", got)
	}
}

// TestBackoffOnFakeClock pins the clock seam end to end: a run whose task
// fails twice completes without sleeping in wall time, while the fake clock
// records that each retry waited out its backoff.
func TestBackoffOnFakeClock(t *testing.T) {
	clk := autoClock()
	var calls atomic.Int32
	var at [3]time.Time // fake time of each attempt's runner call
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		at[tk.Attempt] = clk.Now()
		if calls.Add(1) < 3 {
			return nil, MarkTransient(errors.New("flaky"))
		}
		return "done", nil
	})
	vals, rep, err := Run(nil, 1, r, Options{Phase: "t", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(string) != "done" || rep.Retries != 2 {
		t.Fatalf("vals=%v retries=%d, want done/2", vals[0], rep.Retries)
	}
	// The first gap may also hold the coordinator's initial timer jump; the
	// second holds only the second retry's backoff.
	if gap := at[1].Sub(at[0]); gap < backoffFor(1) {
		t.Errorf("first retry ran %v after the first attempt, want ≥ %v", gap, backoffFor(1))
	}
	if gap := at[2].Sub(at[1]); gap != backoffFor(2) {
		t.Errorf("second retry ran %v after the first, want %v", gap, backoffFor(2))
	}
}

// TestHedgeOnFakeClock drives the hedging machinery without real stragglers:
// the slow task's first attempt blocks until the coordinator cancels it,
// which it does only once the hedge duplicate has won, and the hedge can
// launch only if the fake clock satisfied the hedge deadline.
func TestHedgeOnFakeClock(t *testing.T) {
	clk := autoClock()
	var hedged atomic.Int32
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		if tk.Index == 3 && !tk.Hedged {
			<-ctx.Done() // the straggler: parks until the hedge wins
			return "slow", nil
		}
		if tk.Hedged {
			hedged.Add(1)
		}
		return "fast", nil
	})
	vals, rep, err := Run(nil, 4, r, Options{Phase: "t", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if hedged.Load() == 0 || rep.Hedges == 0 {
		t.Fatalf("no hedge launched (report %+v)", rep)
	}
	if vals[3].(string) != "fast" {
		t.Fatalf("task 3 result = %v, want the hedge's", vals[3])
	}
}
