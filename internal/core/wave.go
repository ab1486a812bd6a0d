package core

import (
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/order"
)

// minParallelBatch is the batch size below which runBatch stays serial: the
// goroutine fan-out costs more than a handful of merge bodies.
const minParallelBatch = 8

// runBatch executes one round's disjoint merge batch and registers the
// results with the queue in batch order. A batch fans its merge bodies out
// across GOMAXPROCS workers only when every group of this build already
// shares one union root (united); small batches, GOMAXPROCS 1 and every
// batch before that point run serially. The parallel form is
// bitwise-identical to the serial one, stats included:
//
//   - The pairs of a batch share no subtree, so merge bodies only interact
//     through the group-offset registry (builder.uf).
//   - A merge registers a union only between two distinct roots of its own
//     groups (registerOffsets). Once the build's groups share one root, no
//     merge of the build can change the registry, so workers only read it.
//   - Results commit in batch order: node ids, stat sums, queue
//     registration and spatial re-indexing all happen serially here.
//   - Both forms sum each merge's stats into a zeroed delta and add the
//     delta to the run's stats, so float sums (SneakWire) round alike.
//
// Single-group runs (ZST, EXT-BST) and prescribed-offset runs are united
// from the start, so all their large batches fan out.
func (b *builder) runBatch(q *order.Queue, batch []order.Pair) {
	base := len(b.nodes)
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && len(batch) >= minParallelBatch && b.united() {
		b.mergeBatchParallel(batch, base, workers)
	} else {
		run := b.stats
		for k, p := range batch {
			b.stats = Stats{}
			b.merge(b.nodes[p.I], b.nodes[p.J], b.slot(base+k))
			run.add(b.stats)
		}
		b.stats = run
	}
	for k := range batch {
		c := b.slot(base + k)
		c.ID = base + k
		b.nodes = append(b.nodes, c)
		q.Merged(c.ID)
	}
}

// mergeBatchParallel is runBatch's parallel wave + serial commit on workers
// goroutines (GOMAXPROCS), run only when the build's groups are united (see
// the runBatch comment). The workers claim blocks of the batch in turn
// (order.ParallelChunksN), and each runs its merges on its own worker
// builder; worker builders share the frozen registry read-only, and each
// merge's stat delta is added in batch order at the commit. When traced it
// times the round's three sections — serial setup, parallel wave, serial
// commit — and accumulates the wave's idle accounting: over a round with W
// workers, slot time is (setup + wave + commit)·W and idle time is
// (setup + commit)·(W−1) plus the wave's internal imbalance
// (wave·W − Σbusy), so idle/slot across rounds is the fraction of worker
// capacity spent waiting on the serial sections or on uneven blocks.
func (b *builder) mergeBatchParallel(batch []order.Pair, base, workers int) {
	// ParallelChunksN never runs more workers than merges.
	workers = min(workers, len(batch))
	tr := b.opt.Trace
	var rgn obs.Region
	var tStart time.Time
	if tr != nil {
		rgn = tr.Begin("wave")
		tStart = obs.Now()
		if len(b.busyNS) < workers {
			b.busyNS = make([]int64, workers)
		}
		for i := range b.busyNS {
			b.busyNS[i] = 0
		}
	}
	if cap(b.deltas) < len(batch) {
		b.deltas = make([]Stats, len(batch))
	}
	deltas := b.deltas[:len(batch)]
	for len(b.workers) < workers {
		// Workers run untraced: a Trace is single-goroutine, and the
		// coordinating builder owns the round's accounting.
		w := builder{opt: b.opt, in: b.in, uf: b.uf}
		w.opt.Trace = nil
		w.initScratch()
		b.workers = append(b.workers, w)
	}
	var tSetup time.Time
	if tr != nil {
		tSetup = obs.Now()
	}

	// Parallel wave: worker wi merges the blocks of the batch it claims on
	// its own builder.
	order.ParallelChunksN(len(batch), workers, 1, func(wi, lo, hi int) {
		w := &b.workers[wi]
		var tBusy time.Time
		if tr != nil {
			tBusy = obs.Now()
		}
		for k := lo; k < hi; k++ {
			p := batch[k]
			w.stats = Stats{}
			w.merge(b.nodes[p.I], b.nodes[p.J], b.slot(base+k))
			deltas[k] = w.stats
		}
		if tr != nil {
			b.busyNS[wi] += obs.Since(tBusy).Nanoseconds()
		}
	})
	var tWave time.Time
	if tr != nil {
		tWave = obs.Now()
	}

	// Serial commit in batch order.
	for _, d := range deltas {
		b.stats.add(d)
	}

	if tr != nil {
		w := int64(workers)
		setup := tSetup.Sub(tStart).Nanoseconds()
		wave := tWave.Sub(tSetup).Nanoseconds()
		commit := obs.Since(tWave).Nanoseconds()
		var busy int64
		for _, v := range b.busyNS[:workers] {
			busy += v
		}
		idle := (setup+commit)*(w-1) + (wave*w - busy)
		if idle < 0 {
			idle = 0 // clock skew between the worker timers and the wave timer
		}
		slot := (setup + wave + commit) * w
		b.waveRounds++
		b.waveSlotNS += slot
		b.waveIdleNS += idle
		if len(batch) > b.waveBatchMax {
			b.waveBatchMax = len(batch)
		}
		idleFrac := 0.0
		if slot > 0 {
			idleFrac = float64(idle) / float64(slot)
		}
		rgn.Attr("batch", float64(len(batch))).
			Attr("workers", float64(workers)).
			Attr("idle_frac", idleFrac)
		rgn.End()
	}
}
