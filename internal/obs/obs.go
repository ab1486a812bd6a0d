// Package obs is the engine's observability layer: a lightweight,
// zero-cost-when-disabled tracing and metrics subsystem the routing pipeline
// (core build, sharded build, pilot pass, stitch, eval) threads through
// itself so every optimization claim can be judged against a measured
// phase-level time attribution instead of end-to-end wall clock alone.
//
// # Span semantics
//
// A Trace records a hierarchy of named wall-time spans. Begin opens a span
// nested under the currently open one (spans form a stack; End closes in
// LIFO order) and returns a Region handle; up to maxAttrs numeric attributes
// may be attached to an open span via Region.Attr. Span storage is a
// preallocated fixed-capacity arena: once it fills, further Begin calls
// record nothing (the drop count is exported), so tracing a run of any size
// has bounded memory and — crucially — performs zero allocations after the
// trace is constructed. Spans are for phases and rounds, not per-merge
// events.
//
// # The disabled-path contract
//
// Every method is nil-safe: calling Begin/End/Attr/Metric/Child/Summary on a
// nil *Trace (or the zero Region) is a no-op that performs no allocations
// and no clock reads. Instrumented code therefore threads a possibly-nil
// *Trace unconditionally and never guards call sites; the hot-path
// allocation budget (~300 allocs for a 10k route, pinned by
// TestRouteAllocBudget) is untouched when tracing is off. Tracing is purely
// observational either way: it must never change routing decisions, so a
// traced build is bitwise identical to an untraced one.
//
// # Concurrency
//
// A Trace is single-goroutine. Concurrent pipeline stages (shard builds)
// each record into a private child trace created with Child *before* the
// fan-out; the parent adopts the children for export. Metrics accumulate by
// name (Metric adds to an existing entry), so repeated sub-builds recording
// into one trace — the pilot's patch routes, for example — sum naturally.
package obs

import "time"

// DefaultSpanCap is the span-arena capacity of New. At ~150 bytes per span a
// trace costs ~300 KB, enough for the pipeline phases plus per-round
// merge-wave spans of large routes; overflow drops spans (counted) rather
// than growing.
const DefaultSpanCap = 2048

// maxAttrs is the number of numeric attributes a span can carry.
const maxAttrs = 4

// Attr is one numeric span attribute.
type Attr struct {
	Key string
	Val float64
}

// Metric is one named counter/gauge of a trace's metric registry.
type Metric struct {
	Name string
	Val  float64
}

// Names of the metrics the router records, shared here so core (which
// writes them) and Summary (which aggregates them) agree without an import
// cycle. The merge-wave pair slot/idle are nanosecond totals: slot is
// (setup + wave + commit) × workers summed over parallel rounds, idle the
// worker-nanoseconds spent waiting on the serial task setup and serial
// commit plus wave-internal load imbalance, so idle/slot is the wave's
// aggregate idle fraction. Rounds that run serially (before a build's
// groups are united) are not wave rounds and record nothing here.
const (
	MetricWaveRounds    = "merge_wave_rounds"
	MetricWaveSlotNS    = "merge_wave_slot_ns"
	MetricWaveIdleNS    = "merge_wave_idle_ns"
	MetricWaveBatchMax  = "merge_wave_batch_max"
	MetricPairingNS     = "pairing_ns"
	MetricGridRebuildNS = "grid_rebuild_ns"
	// Dispatch fault-handling counters (internal/dispatch): retries
	// scheduled after transient failures, hedged straggler duplicates and
	// those of them whose result was kept, panics contained into per-task
	// errors, and planned faults injected (FaultPlan runs only). Recorded
	// on the dispatching trace, so sharded runs sum the pilot and shard
	// phases via MetricValue.
	MetricDispatchRetries   = "dispatch_retries"
	MetricDispatchHedges    = "dispatch_hedges"
	MetricDispatchHedgeWins = "dispatch_hedge_wins"
	MetricDispatchPanics    = "dispatch_panics_recovered"
	MetricDispatchFaults    = "dispatch_faults_injected"
	// Remote-dispatch degradation counters: executions that fell back to
	// the in-process runner because no healthy worker could take them, and
	// workers blacklisted after consecutive failures. Zero on all-local
	// runs and on remote runs where the fleet stayed healthy.
	MetricDispatchRemoteFallbacks = "dispatch_remote_fallbacks"
	MetricDispatchWorkersLost     = "dispatch_workers_lost"
)

// span is one recorded region. Fixed-size (inline attrs) so the arena is a
// single allocation.
type span struct {
	name   string
	start  time.Time
	dur    time.Duration
	parent int32
	nattrs uint8
	attrs  [maxAttrs]Attr
}

// Trace is a single-goroutine hierarchical phase recorder. The zero value is
// not usable; construct with New/NewWithCap, or receive nil for "disabled".
type Trace struct {
	label    string
	epoch    time.Time
	closed   time.Time
	spans    []span
	stack    []int32
	metrics  []Metric
	children []*Trace
	prov     *Provenance
	dropped  int
}

// New returns an enabled trace with the default span capacity. The trace's
// epoch — the zero point of span offsets and of Wall — is the call time, so
// construct the trace immediately before the work it should account for.
func New(label string) *Trace { return NewWithCap(label, DefaultSpanCap) }

// NewWithCap is New with an explicit span-arena capacity.
func NewWithCap(label string, spanCap int) *Trace {
	if spanCap < 1 {
		spanCap = 1
	}
	return &Trace{
		label:   label,
		epoch:   time.Now(),
		spans:   make([]span, 0, spanCap),
		stack:   make([]int32, 0, 16),
		metrics: make([]Metric, 0, 32),
	}
}

// Label returns the trace's label ("" on nil).
func (t *Trace) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Region is a handle to an open span. The zero Region (and any Region from a
// nil trace or a full arena) is inert: Attr and End on it are no-ops.
type Region struct {
	t  *Trace
	id int32
}

// Begin opens a span named name under the currently open span and returns
// its Region. On a nil trace, or once the span arena is full (the drop is
// counted), it returns an inert Region.
func (t *Trace) Begin(name string) Region {
	if t == nil {
		return Region{}
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return Region{}
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent})
	t.stack = append(t.stack, id)
	return Region{t: t, id: id}
}

// Attr attaches a numeric attribute to the region's span (up to maxAttrs;
// later ones are dropped). Returns the region for chaining.
func (r Region) Attr(key string, v float64) Region {
	if r.t == nil {
		return r
	}
	sp := &r.t.spans[r.id]
	if int(sp.nattrs) < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Val: v}
		sp.nattrs++
	}
	return r
}

// End closes the region's span, recording its duration. Spans close in LIFO
// order; an out-of-order End still records its own duration and removes the
// span from the open stack wherever it sits.
func (r Region) End() {
	t := r.t
	if t == nil {
		return
	}
	sp := &t.spans[r.id]
	sp.dur = time.Since(sp.start)
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == r.id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// Child creates, adopts and returns a child trace (nil on a nil receiver).
// Children are how concurrent stages record without sharing: create the
// child on the parent's goroutine before the fan-out, hand it to exactly one
// goroutine, and Close it when that stage's work is done.
func (t *Trace) Child(label string) *Trace {
	if t == nil {
		return nil
	}
	c := NewWithCap(label, cap(t.spans))
	t.children = append(t.children, c)
	return c
}

// Metric adds v to the named metric, creating it at v if absent. Accumulation
// by name makes repeated sub-builds recording into one trace (pilot patches)
// sum; first-record order is preserved for export.
func (t *Trace) Metric(name string, v float64) {
	if t == nil {
		return
	}
	for i := range t.metrics {
		if t.metrics[i].Name == name {
			t.metrics[i].Val += v
			return
		}
	}
	t.metrics = append(t.metrics, Metric{Name: name, Val: v})
}

// MetricValue returns the named metric's value summed over this trace and
// all descendants (0, false when absent everywhere).
func (t *Trace) MetricValue(name string) (float64, bool) {
	if t == nil {
		return 0, false
	}
	var v float64
	found := false
	for i := range t.metrics {
		if t.metrics[i].Name == name {
			v += t.metrics[i].Val
			found = true
		}
	}
	for _, c := range t.children {
		if cv, ok := c.MetricValue(name); ok {
			v += cv
			found = true
		}
	}
	return v, found
}

// SetProvenance attaches run provenance (exported on the trace root).
func (t *Trace) SetProvenance(p *Provenance) {
	if t == nil {
		return
	}
	t.prov = p
}

// Close fixes the trace's wall time at now − epoch. Idempotent; an unclosed
// trace reports wall time up to the moment it is read instead.
func (t *Trace) Close() {
	if t == nil || !t.closed.IsZero() {
		return
	}
	t.closed = time.Now()
}

// Wall returns the trace's wall time: Close time minus epoch, or time since
// epoch when the trace is still open (0 on nil).
func (t *Trace) Wall() time.Duration {
	if t == nil {
		return 0
	}
	if !t.closed.IsZero() {
		return t.closed.Sub(t.epoch)
	}
	return time.Since(t.epoch)
}

// Dropped reports how many Begin calls the full span arena rejected.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Children returns the adopted child traces (nil on nil).
func (t *Trace) Children() []*Trace {
	if t == nil {
		return nil
	}
	return t.children
}
