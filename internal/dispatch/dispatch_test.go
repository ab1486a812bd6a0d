package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRunReturnsResultsInOrder(t *testing.T) {
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		return tk.Index * 10, nil
	})
	vals, rep, err := Run(nil, 8, r, Options{Phase: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != i*10 {
			t.Errorf("result[%d] = %v, want %d", i, v, i*10)
		}
	}
	if rep.Tasks != 8 || rep.Attempts != 8 || rep.Retries != 0 || rep.Hedges != 0 || rep.HedgeWins != 0 || rep.PanicsRecovered != 0 {
		t.Errorf("clean run report = %+v", rep)
	}
}

// TestReportAddSumsEveryField: Add sums every count, so a Report field that
// Add forgets fails here.
func TestReportAddSumsEveryField(t *testing.T) {
	var a, b Report
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(10 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(11*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

func TestRunZeroTasks(t *testing.T) {
	vals, rep, err := Run(nil, 0, RunnerFunc(func(context.Context, Task) (any, error) {
		t.Error("runner called for empty dispatch")
		return nil, nil
	}), Options{})
	if err != nil || len(vals) != 0 || rep.Tasks != 0 {
		t.Fatalf("empty dispatch: vals=%v rep=%+v err=%v", vals, rep, err)
	}
}

func TestRetryTransientSucceeds(t *testing.T) {
	var calls atomic.Int32
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		if tk.Index == 2 && tk.Attempt == 0 {
			return nil, MarkTransient(errors.New("flaky"))
		}
		calls.Add(1)
		return "ok", nil
	})
	vals, rep, err := Run(nil, 4, r, Options{Phase: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if vals[2].(string) != "ok" {
		t.Errorf("retried task result = %v", vals[2])
	}
	if rep.Retries != 1 || rep.Attempts != 5 {
		t.Errorf("report = %+v, want 1 retry / 5 attempts", rep)
	}
}

func TestPermanentFailsFast(t *testing.T) {
	base := errors.New("bad options")
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		if tk.Index == 1 {
			return nil, base
		}
		return nil, nil
	})
	_, rep, err := Run(nil, 3, r, Options{Phase: "t"})
	if err == nil {
		t.Fatal("permanent failure did not surface")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %T, want *TaskError", err)
	}
	if te.Index != 1 || te.Attempts != 1 || te.Phase != "t" {
		t.Errorf("TaskError = %+v, want task 1 after exactly 1 attempt", te)
	}
	if !errors.Is(err, base) {
		t.Error("TaskError does not unwrap to the runner's error")
	}
	if rep.Retries != 0 {
		t.Errorf("permanent failure retried: %+v", rep)
	}
}

// TestRetryablePanicsAndMarkedErrors pins the retry predicate: contained
// panics and MarkTransient errors retry, everything else fails fast.
func TestRetryablePanicsAndMarkedErrors(t *testing.T) {
	pe := &PanicError{Phase: "t", Index: 0, Value: "boom"}
	if !retryable(pe) {
		t.Error("bare PanicError should be retryable")
	}
	if !retryable(MarkTransient(errors.New("x"))) {
		t.Error("MarkTransient ignored")
	}
	if retryable(errors.New("plain")) {
		t.Error("unmarked errors must fail fast")
	}
	if retryable(context.Canceled) {
		t.Error("cancellation must fail fast")
	}
}

func TestPanicContainedAndRetried(t *testing.T) {
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		if tk.Index == 0 && tk.Attempt == 0 {
			panic("worker exploded")
		}
		return tk.Index, nil
	})
	vals, rep, err := Run(nil, 2, r, Options{Phase: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int) != 0 {
		t.Errorf("panicked task result = %v", vals[0])
	}
	if rep.PanicsRecovered != 1 || rep.Retries != 1 {
		t.Errorf("report = %+v, want 1 panic recovered + 1 retry", rep)
	}
}

func TestPanicEveryAttemptFailsWithoutCrash(t *testing.T) {
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		panic(fmt.Sprintf("always (attempt %d)", tk.Attempt))
	})
	_, rep, err := Run(nil, 1, r, Options{Phase: "t"})
	var te *TaskError
	if !errors.As(err, &te) || te.Attempts != 3 {
		t.Fatalf("err = %v, want TaskError after 3 attempts", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("terminal error does not unwrap to *PanicError: %v", err)
	}
	if pe.Phase != "t" || pe.Index != 0 || pe.Attempt != 2 {
		t.Errorf("PanicError coordinates = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	if rep.PanicsRecovered != 3 || rep.Retries != 2 {
		t.Errorf("report = %+v, want 3 panics / 2 retries", rep)
	}
}

func TestProtect(t *testing.T) {
	err := Protect("stitch", func() error { panic("seam") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Phase != "stitch" || pe.Index != -1 {
		t.Fatalf("Protect returned %v, want *PanicError{Phase: stitch, Index: -1}", err)
	}
	base := errors.New("plain failure")
	if got := Protect("stitch", func() error { return base }); got != base {
		t.Errorf("Protect altered a plain error: %v", got)
	}
	if got := Protect("stitch", func() error { return nil }); got != nil {
		t.Errorf("Protect invented an error: %v", got)
	}
}

func TestFaultPlanCoordinates(t *testing.T) {
	plan := NewFaultPlan().
		PanicAt("t", 0, 0).
		ErrorAt("t", 1, 0, MarkTransient(ErrInjected)).
		DelayAt("t", 1, 0, time.Millisecond). // composes with the error
		DelayAt("t", 2, 0, time.Millisecond)
	if plan.Len() != 3 {
		t.Fatalf("plan.Len() = %d, want 3", plan.Len())
	}
	f, ok := plan.at("t", 1, 0)
	if !ok || f.Err == nil || f.Delay != time.Millisecond {
		t.Errorf("composed fault = %+v", f)
	}
	if _, ok := plan.at("other", 0, 0); ok {
		t.Error("fault leaked across phases")
	}

	var executions atomic.Int32
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		executions.Add(1)
		return tk.Index, nil
	})
	vals, rep, err := Run(nil, 3, r, Options{Phase: "t", Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != i {
			t.Errorf("result[%d] = %v under faults", i, v)
		}
	}
	if rep.FaultsInjected != 3 || rep.PanicsRecovered != 1 || rep.Retries != 2 {
		t.Errorf("report = %+v, want 3 faults / 1 panic / 2 retries", rep)
	}
}

// TestFaultPlanBuildersCompose: the five builders fold into one fault at a
// shared coordinate whatever their order, the union Merge applies to the
// same single-fault plans.
func TestFaultPlanBuildersCompose(t *testing.T) {
	errA := MarkTransient(errors.New("injected"))
	builders := map[string]func(*FaultPlan) *FaultPlan{
		"panic":   func(p *FaultPlan) *FaultPlan { return p.PanicAt("t", 0, 0) },
		"error":   func(p *FaultPlan) *FaultPlan { return p.ErrorAt("t", 0, 0, errA) },
		"delay":   func(p *FaultPlan) *FaultPlan { return p.DelayAt("t", 0, 0, time.Millisecond) },
		"drop":    func(p *FaultPlan) *FaultPlan { return p.DropAt("t", 0, 0) },
		"corrupt": func(p *FaultPlan) *FaultPlan { return p.CorruptAt("t", 0, 0) },
	}
	want := Fault{Panic: true, Err: errA, Delay: time.Millisecond, Drop: true, Corrupt: true}
	for _, order := range [][]string{
		{"panic", "error", "delay", "drop", "corrupt"},
		{"corrupt", "drop", "delay", "error", "panic"},
		{"drop", "corrupt", "panic", "delay", "error"},
		{"delay", "error", "drop", "panic", "corrupt"},
		{"error", "corrupt", "panic", "drop", "delay"},
	} {
		chained, merged := NewFaultPlan(), NewFaultPlan()
		for _, name := range order {
			builders[name](chained)
			merged.Merge(builders[name](NewFaultPlan()))
		}
		for _, tc := range []struct {
			how  string
			plan *FaultPlan
		}{{"chained", chained}, {"merged", merged}} {
			if f, ok := tc.plan.at("t", 0, 0); !ok || tc.plan.Len() != 1 || f != want {
				t.Errorf("%v %s: %d fault(s), at the coordinate %+v, want %+v", order, tc.how, tc.plan.Len(), f, want)
			}
		}
	}
}

func TestSeededPlanDeterministicAndSurvivable(t *testing.T) {
	a := SeededPlan(7, 8, time.Millisecond, "shard")
	b := SeededPlan(7, 8, time.Millisecond, "shard")
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different plans: %d vs %d faults", a.Len(), b.Len())
	}
	for k, f := range a.faults {
		g, ok := b.faults[k]
		if !ok || g.Panic != f.Panic || (g.Err == nil) != (f.Err == nil) || g.Delay != f.Delay {
			t.Fatalf("same seed, different fault at %+v: %+v vs %+v", k, f, g)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		plan := SeededPlan(seed, 8, 0, "shard")
		r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) { return tk.Index, nil })
		vals, _, err := Run(nil, 8, r, Options{Phase: "shard", Faults: plan})
		if err != nil {
			t.Fatalf("seed %d: default policy did not survive the plan: %v", seed, err)
		}
		for i, v := range vals {
			if v.(int) != i {
				t.Fatalf("seed %d: result[%d] = %v", seed, i, v)
			}
		}
	}
}

// autoClock returns a FakeClock that jumps to each timer's deadline as the
// timer is armed, so the hedge deadline passes at once. Any task still in
// flight when the hedge timer is armed is hedged too, so the hedge tests
// count hedges per task.
func autoClock() *FakeClock {
	clk := NewFakeClock()
	clk.SetAutoAdvance(true)
	return clk
}

// hedgesPerTask counts a traced run's dispatch_hedge event spans by task:
// every hedge the coordinator launched, including one cancelled before it
// reached the runner.
func hedgesPerTask(t *testing.T, tr *obs.Trace, n int) []int {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Spans []struct {
			Name  string             `json:"name"`
			Attrs map[string]float64 `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	per := make([]int, n)
	for _, sp := range out.Spans {
		if sp.Name == "dispatch_hedge" {
			per[int(sp.Attrs["task"])]++
		}
	}
	return per
}

func TestHedgeStragglerFirstResultWins(t *testing.T) {
	// Task 3's first attempt straggles until cancelled; its hedge and every
	// other task's first attempt return promptly. A hedge of another task
	// parks until cancelled, so the straggler's is the only hedge that can
	// win. The dispatcher must hedge the straggler exactly once, take the
	// hedge's result, count one hedge win, and cancel the straggler on the
	// way out.
	const n = 4
	var running atomic.Int32
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) {
		running.Add(1)
		defer running.Add(-1)
		if (tk.Index == 3) != tk.Hedged {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return tk.Index, nil
	})
	tr := obs.New("t")
	vals, rep, err := Run(nil, n, r, Options{Phase: "t", Trace: tr, Clock: autoClock()})
	if err != nil {
		t.Fatal(err)
	}
	if vals[3].(int) != 3 {
		t.Errorf("straggler result = %v, want the hedge's 3", vals[3])
	}
	per := hedgesPerTask(t, tr, n)
	if per[3] != 1 {
		t.Errorf("straggler hedged %d times, want exactly 1", per[3])
	}
	for i, h := range per {
		if h > 1 {
			t.Errorf("task %d hedged %d times, want at most 1", i, h)
		}
	}
	if extra := rep.Attempts - n - rep.Retries; extra != rep.Hedges {
		t.Errorf("report %+v: %d extra executions, want one per hedge", rep, extra)
	}
	if rep.HedgeWins != 1 {
		t.Errorf("report %+v: %d hedge wins, want 1", rep, rep.HedgeWins)
	}
	if got, _ := tr.MetricValue(obs.MetricDispatchHedgeWins); got != 1 {
		t.Errorf("trace metric %s = %v, want 1", obs.MetricDispatchHedgeWins, got)
	}
	if got := running.Load(); got != 0 {
		t.Errorf("%d execution(s) outlived Run", got)
	}
}

func TestHedgeAtMostOncePerTask(t *testing.T) {
	// The straggler ignores its hedge too: both executions block until the
	// run context dies, which the hedge's arrival triggers. A second hedge
	// for the same task must never launch.
	const n = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := RunnerFunc(func(c context.Context, tk Task) (any, error) {
		if tk.Index == 0 {
			if tk.Hedged {
				cancel()
			}
			<-c.Done()
			return nil, c.Err()
		}
		return tk.Index, nil
	})
	tr := obs.New("t")
	_, rep, err := Run(ctx, n, r, Options{Phase: "t", Trace: tr, Clock: autoClock()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation the straggler's hedge triggered", err)
	}
	per := hedgesPerTask(t, tr, n)
	if per[0] != 1 {
		t.Errorf("straggler hedged %d times, want exactly 1", per[0])
	}
	sum := 0
	for i, h := range per {
		sum += h
		if h > 1 {
			t.Errorf("task %d hedged %d times, want at most 1", i, h)
		}
	}
	if sum != rep.Hedges {
		t.Errorf("%d hedge spans, report says %d", sum, rep.Hedges)
	}
}

func TestCancellationUnwindsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := RunnerFunc(func(c context.Context, tk Task) (any, error) {
		if tk.Index == 0 {
			cancel() // first task pulls the plug on the whole dispatch
		}
		<-c.Done()
		return nil, c.Err()
	})
	start := time.Now()
	_, _, err := Run(ctx, 4, r, Options{Phase: "t"})
	if err == nil {
		t.Fatal("cancelled dispatch returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
	// Generous against race-detector slowdown and loaded CI: the point is
	// that unwinding is bounded at all, not a latency target.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
}

func TestBackoffCappedExponential(t *testing.T) {
	ms := time.Millisecond
	want := []time.Duration{5 * ms, 10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 250 * ms, 250 * ms}
	for i, w := range want {
		if got := backoffFor(i + 1); got != w {
			t.Errorf("backoffFor(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestQuantileDur(t *testing.T) {
	durs := []time.Duration{40, 10, 30, 20} // unsorted on purpose
	if got := quantileDur(durs, 0.5); got != 20 {
		t.Errorf("median = %v, want 20", got)
	}
	if got := quantileDur(durs, 1); got != 40 {
		t.Errorf("max quantile = %v, want 40", got)
	}
	if got := quantileDur([]time.Duration{7}, 0.5); got != 7 {
		t.Errorf("singleton quantile = %v, want 7", got)
	}
	if durs[0] != 40 {
		t.Error("quantileDur mutated its input")
	}
}

func TestDispatchMetricsOnTrace(t *testing.T) {
	plan := NewFaultPlan().
		PanicAt("t", 0, 0).
		ErrorAt("t", 1, 0, MarkTransient(ErrInjected))
	tr := obs.New("dispatch-test")
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) { return tk.Index, nil })
	_, rep, err := Run(nil, 2, r, Options{Phase: "t", Faults: plan, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	for name, want := range map[string]int{
		obs.MetricDispatchRetries: rep.Retries,
		obs.MetricDispatchPanics:  rep.PanicsRecovered,
		obs.MetricDispatchFaults:  rep.FaultsInjected,
	} {
		got, ok := tr.MetricValue(name)
		if !ok || got != float64(want) {
			t.Errorf("%s = %v (found %v), report says %d", name, got, ok, want)
		}
	}
}

// TestDispatchAllocOverhead pins the fault layer's own cost: a clean (no
// fault, no retry, no hedge) dispatch is a fixed per-task overhead —
// goroutine, context, bookkeeping — independent of what the tasks do, so
// wrapping shard builds in the dispatcher adds nothing per route.
func TestDispatchAllocOverhead(t *testing.T) {
	const perTaskBudget = 40 // observed ~20 allocs/task; headroom for runtime drift
	r := RunnerFunc(func(ctx context.Context, tk Task) (any, error) { return nil, nil })
	o := Options{Phase: "t"}
	for _, n := range []int{4, 16} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := Run(nil, n, r, o); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %.1f allocs/run (%.1f per task)", n, allocs, allocs/float64(n))
		if allocs > float64(n*perTaskBudget) {
			t.Errorf("n=%d dispatch allocations = %.0f, budget %d", n, allocs, n*perTaskBudget)
		}
	}
}
