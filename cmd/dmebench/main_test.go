package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

// smoke runs every workload through the same runner at a few hundred to a
// few thousand sinks, so the whole suite stays within seconds.
var smoke = config{
	paperCircuits: 2,
	paperGroups:   []int{4},
	flatSinks:     400,
	shardedSinks:  600,
	shardedShards: 2,
	ecoSinks:      1000,
	ecoShards:     4,
	ecoHops:       3,
	setups:        1,
}

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloadsEmitEveryMetric runs each workload untraced and traced (one
// cycle of inputs per pass) and requires every metric BENCHMARK.json names,
// with its unit, no failed op and every check passing.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	sp := loadRepoSpec(t)
	for _, w := range workloads {
		o, err := measureEndToEnd(w, smoke, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkOutcome(t, w.name+" untraced", o, sp.EndToEnd)
		o, _, err = measureLayers(w, smoke, 1, 0)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkOutcome(t, w.name+" traced", o, sp.PerLayer)
	}
}

func checkOutcome(t *testing.T, label string, o *outcome, want []specMetric) {
	t.Helper()
	if !o.correct || o.failed != 0 || o.attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%q", label, o.correct, o.attempted, o.failed, o.problems)
	}
	if len(o.metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", label, len(o.metrics), len(want))
	}
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", label, m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", label, m.Name, v.Value)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestSpecMatchesBinary guards BENCHMARK.json against drift from the
// binary: the same workloads and metrics in the same order, with the same
// units and directions, within the limits the file format sets.
func TestSpecMatchesBinary(t *testing.T) {
	sp := loadRepoSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(sp.Workloads), len(workloads))
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("caps: %d workloads (2–8), %d end-to-end (≤16), %d per-layer (≤128)",
			len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range sp.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			name(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, binary %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			} else if bounded && !(*m.Bound > 0 && *m.Bound <= 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	compare("end_to_end", sp.EndToEnd, endToEnd, true)
	compare("per_layer", sp.PerLayer, perLayer, false)

	var setup specMetric
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound == nil {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower better, with a bound")
	}
	for _, m := range sp.EndToEnd {
		if m.Bound != nil && *m.Bound > *setup.Bound {
			t.Errorf("%s has bound %v above setup_s's %v", m.Name, *m.Bound, *setup.Bound)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1–60", sp.RunSeconds)
	}
	if len(sp.Paths) < 1 || len(sp.Paths) > 16 || len(sp.Command) == 0 || len(sp.Command) > 32 {
		t.Errorf("paths %q or command %q out of bounds", sp.Paths, sp.Command)
	}
	for _, p := range sp.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is malformed", p)
		}
	}
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		base, next   []float64
		higherBetter bool
		want         string
	}{
		{[]float64{1.00, 1.01, 0.99}, []float64{1.02, 1.00, 1.03}, false, "unchanged"},
		{[]float64{1.00, 1.01, 0.99}, []float64{1.30, 1.25, 1.28}, false, "worse"},
		{[]float64{1.00, 1.01, 0.99}, []float64{0.70, 0.75, 0.72}, false, "better"},
		{[]float64{1.00, 1.01, 0.99}, []float64{0.70, 0.75, 0.72}, true, "worse"},
		{[]float64{1.0, 1.5, 0.6, 1.2}, []float64{1.3, 0.7, 1.6, 1.1}, false, "unresolved"},
		{[]float64{1.0, 1.5, 0.6, 1.2}, []float64{0.3, 0.2, 0.4, 0.5}, false, "better"},
		{[]float64{2}, []float64{2}, true, "unchanged"},
	} {
		if got := judge(c.base, c.next, 0.1, c.higherBetter).verdict; got != c.want {
			t.Errorf("judge(%v, %v, higherBetter=%v) = %s, want %s", c.base, c.next, c.higherBetter, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25].
	if got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 5.5 {
		t.Errorf("quartileSpread = %v, want 5.5", got)
	}
}
