package simtable

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/memsim"
	"dramhit/internal/table"
)

// pipeOp is one in-flight request in a simulated prefetch pipeline.
type pipeOp struct {
	h      uint64
	fp     uint16
	idx    uint64
	probes uint64
	insert bool
	// submitClock records when the request entered the pipeline (latency
	// CDF experiment).
	submitClock float64
}

// pipeline mirrors dramhit.Handle on the simulated machine: a bounded FIFO
// of pending requests, a prefetch per enqueued line, processing restricted
// to the already-prefetched line, and reprobes that re-enqueue with a fresh
// prefetch. Like the real flat ring it reads no fingerprint sidecar and
// executes every request by its own probe (DESIGN.md §3.1.2–3); unlike it,
// a visit is still one line, not a prefetched line pair (ROADMAP item 20).
type pipeline struct {
	a      *array
	q      []pipeOp
	head   int
	tail   int
	mask   int
	window int
	simd   bool
	// singleWriter selects plain stores over CAS for slot claims
	// (DRAMHiT-P partition owners).
	singleWriter bool
	// submitCost/completeCost are the engine compute charges. The
	// concurrent table pays full request marshaling and response handling;
	// a partition owner applying delegated fire-and-forget updates has no
	// response path and a leaner dispatch, which is part of why delegation
	// wins on write-heavy skew.
	submitCost   float64
	completeCost float64
	// upsert marks counting semantics: updating an existing key is an
	// atomic add (RMW) rather than a plain overwrite store. Single-writer
	// partitions never need the atomic — ownership serializes them.
	upsert bool

	// Stats.
	ops      uint64
	hits     uint64
	reprobes uint64
	// keyLines counts line visits that consulted key lanes, the real
	// tables' Stats.Lines.
	keyLines uint64
	// onComplete, when set, receives (submitClock, completeClock) pairs.
	onComplete func(submit, complete float64)
}

func newPipeline(a *array, window int, simd, singleWriter bool) *pipeline {
	capacity := 1
	for capacity < window+1 {
		capacity <<= 1
	}
	p := &pipeline{
		a:            a,
		q:            make([]pipeOp, capacity),
		mask:         capacity - 1,
		window:       window,
		simd:         simd,
		singleWriter: singleWriter,
		submitCost:   hashCycles + queueOpCycles,
		completeCost: completionCost,
	}
	if singleWriter {
		// Delegated updates arrive pre-hashed and produce no response.
		p.submitCost = ownerDispatchCycles
		p.completeCost = 2
	}
	return p
}

func (p *pipeline) pending() int { return p.head - p.tail }

// submit enqueues one request, prefetching its home line, and drains the
// pipeline head while the window is full.
func (p *pipeline) submit(t *memsim.Thread, h uint64, insert bool) {
	t.Compute(p.submitCost)
	op := pipeOp{
		h:           h,
		fp:          fpOf(h),
		idx:         hashfn.Fastrange(h, p.a.size),
		insert:      insert,
		submitClock: t.Clock,
	}
	t.Prefetch(p.a.line(op.idx))
	p.q[p.head&p.mask] = op
	p.head++
	for p.pending() >= p.window {
		p.processOldest(t)
	}
}

// flush drains the pipeline.
func (p *pipeline) flush(t *memsim.Thread) {
	for p.pending() > 0 {
		p.processOldest(t)
	}
}

// processOldest pops the oldest request and executes it over its current
// cache line; a crossing re-enqueues with a new prefetch.
func (p *pipeline) processOldest(t *memsim.Thread) {
	op := p.q[p.tail&p.mask]
	p.tail++
	a := p.a

	line := a.line(op.idx)
	lineEnd := (op.idx/table.SlotsPerCacheLine + 1) * table.SlotsPerCacheLine
	if lineEnd > a.size {
		lineEnd = a.size
	}
	p.keyLines++
	// Consume the (ideally prefetched) line.
	t.Access(line, memsim.Load)
	if p.simd {
		t.Compute(lineScanSIMD)
	}
	for op.idx < lineEnd && op.probes < a.size {
		if !p.simd {
			t.Compute(slotScanScalar)
		}
		f := a.fp[op.idx]
		if op.insert {
			switch f {
			case fpEmpty:
				a.fp[op.idx] = op.fp
				p.claim(t, line)
				p.complete(t, op, true)
				return
			case op.fp:
				// Existing key: overwrite/add the value word.
				p.update(t, line)
				p.complete(t, op, true)
				return
			}
		} else {
			switch f {
			case op.fp:
				p.complete(t, op, true)
				return
			case fpEmpty:
				p.complete(t, op, false)
				return
			}
		}
		op.idx++
		op.probes++
	}
	if op.probes >= a.size {
		p.complete(t, op, false) // table exhausted
		return
	}
	if op.idx == a.size {
		op.idx = 0
	}
	// Crossing into the next line: reprobe through the queue.
	p.reprobes++
	t.Compute(queueOpCycles)
	t.Prefetch(a.line(op.idx))
	p.q[p.head&p.mask] = op
	p.head++
}

// claim charges the slot-claim write: a CAS for the concurrent table, a
// plain store for a single-writer partition.
func (p *pipeline) claim(t *memsim.Thread, line uint64) {
	if p.singleWriter {
		t.Access(line, memsim.Store)
	} else {
		t.Access(line, memsim.RMW)
	}
}

// update charges an overwrite (Put) or atomic add (Upsert) of an existing
// tuple's value word.
func (p *pipeline) update(t *memsim.Thread, line uint64) {
	if p.upsert && !p.singleWriter {
		t.Access(line, memsim.RMW)
		return
	}
	t.Access(line, memsim.Store)
}

func (p *pipeline) complete(t *memsim.Thread, op pipeOp, hit bool) {
	t.Compute(p.completeCost)
	p.ops++
	if hit {
		p.hits++
	}
	if p.onComplete != nil {
		p.onComplete(op.submitClock, t.Clock)
	}
}
