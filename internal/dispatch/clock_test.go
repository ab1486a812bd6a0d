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

// TestBackoffOnFakeClock pins the clock seam end to end: a run with hour-long
// backoffs completes instantly in wall time, while the fake clock records
// that the coordinator really slept the full schedule.
func TestBackoffOnFakeClock(t *testing.T) {
	clk := NewFakeClock()
	clk.SetAutoAdvance(true)
	start := clk.Now()
	var calls atomic.Int32
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		if calls.Add(1) < 3 {
			return nil, MarkTransient(errors.New("flaky"))
		}
		return "done", nil
	})
	wallStart := time.Now()
	vals, rep, err := Run(nil, 1, r, Options{
		Phase:        "t",
		BackoffBase:  time.Hour,
		BackoffMax:   3 * time.Hour,
		DisableHedge: true,
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(wallStart); wall > 30*time.Second {
		t.Fatalf("fake-clock run took %v of wall time", wall)
	}
	if vals[0].(string) != "done" || rep.Retries != 2 {
		t.Fatalf("vals=%v retries=%d, want done/2", vals[0], rep.Retries)
	}
	// Attempt 1 backs off 1h, attempt 2 backs off 2h: the fake clock must
	// have advanced at least 3h of simulated time.
	if elapsed := clk.Now().Sub(start); elapsed < 3*time.Hour {
		t.Fatalf("fake elapsed = %v, want ≥ 3h of simulated backoff", elapsed)
	}
}

// TestHedgeOnFakeClock drives the hedging machinery without real stragglers:
// the slow task's first attempt blocks until the coordinator cancels it,
// which it does only once the hedge duplicate has won, and the hedge can
// launch only if the fake clock satisfied the hedge deadline.
func TestHedgeOnFakeClock(t *testing.T) {
	clk := NewFakeClock()
	clk.SetAutoAdvance(true)
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
	vals, rep, err := Run(nil, 4, r, Options{
		Phase:       "t",
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Microsecond,
		HedgeSlack:  time.Hour, // only the fake clock can afford this
		Clock:       clk,
	})
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
