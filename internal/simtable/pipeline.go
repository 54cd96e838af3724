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
	// checked marks a tagged op whose current line passed the tag-word gate
	// and whose data line is already being prefetched; the next head pass
	// consults the key lanes.
	checked bool
	// submitClock records when the request entered the pipeline (latency
	// CDF experiment).
	submitClock float64
}

// pipeline mirrors dramhit.Handle on the simulated machine: a bounded FIFO
// of pending requests, a prefetch per enqueued line, processing restricted
// to the already-prefetched line, and reprobes that re-enqueue with a fresh
// prefetch.
type pipeline struct {
	a      *array
	q      []pipeOp
	head   int
	tail   int
	mask   int
	window int
	simd   bool
	// tagged models the packed tag-fingerprint filter as a pipelined
	// metadata stream: enqueuing a line visit prefetches the (16x denser)
	// tag sidecar line; when the op reaches the head, the tag word decides.
	// A rejected line advances without ever touching its data line — no
	// DRAM transaction, which is the filter's entire win — while an
	// admitted line prefetches its data and takes one more queue pass
	// before the key lanes are scanned. Engaged when the array carries a
	// sidecar and the pipeline is SIMD — the filter is line-granular, so
	// the scalar probe runs unfiltered. The real flat tables have no sidecar
	// (DESIGN.md §3.1.2); the model stays so its prediction of that choice
	// can be checked against the measured gap.
	tagged bool
	// singleWriter selects plain stores over CAS for slot claims
	// (DRAMHiT-P partition owners).
	singleWriter bool
	// combining models in-window request combining: a submitted hash that
	// already has a pending op in the window folds onto it — duplicate
	// upserts merge their deltas, duplicate reads piggyback one probe —
	// paying only the completion work. No prefetch, no line access, no
	// queue slot: a combined op is zero additional DRAM transactions,
	// which is the entire win on skewed streams.
	combining bool
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
	// keyLines / tagSkips mirror the real tables' filter counters: line
	// visits that consulted key lanes vs visits rejected from the tag word.
	keyLines uint64
	tagSkips uint64
	// combined counts ops folded onto a pending in-window duplicate.
	combined uint64
	// onComplete, when set, receives (submitClock, completeClock) pairs.
	onComplete func(submit, complete float64)
}

func newPipeline(a *array, window int, simd, singleWriter, combining bool) *pipeline {
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
		tagged:       simd && a.tags != nil,
		singleWriter: singleWriter,
		combining:    combining,
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
	if p.combining {
		for i := p.tail; i < p.head; i++ {
			if p.q[i&p.mask].h == h {
				// In-window duplicate: fold onto the pending op (merged
				// delta or piggybacked read). Only the completion work is
				// charged — the op issues no prefetch, takes no queue slot,
				// and touches no cache line. Skewed duplicates overwhelmingly
				// target resident keys, so the fold counts as a hit.
				p.combined++
				p.ops++
				p.hits++
				t.Compute(p.completeCost)
				if p.onComplete != nil {
					p.onComplete(t.Clock, t.Clock)
				}
				return
			}
		}
	}
	op := pipeOp{
		h:           h,
		fp:          fpOf(h),
		idx:         hashfn.Fastrange(h, p.a.size),
		insert:      insert,
		submitClock: t.Clock,
	}
	if p.tagged {
		t.Prefetch(p.a.tagLine(op.idx))
	} else {
		t.Prefetch(p.a.line(op.idx))
	}
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

	for {
		line := a.line(op.idx)
		lineEnd := (op.idx/table.SlotsPerCacheLine + 1) * table.SlotsPerCacheLine
		if lineEnd > a.size {
			lineEnd = a.size
		}
		if p.tagged && !op.checked {
			// The metadata stream: read the (prefetched) tag-sidecar line
			// and run the register-only byte match.
			t.Access(a.tagLine(op.idx), memsim.Load)
			t.Compute(tagCheckCycles)
			if !a.lineCandidates(op.idx, tag8(op.fp)) {
				// Rejected from the tag word alone: the data line's key
				// lanes are never consulted and no DRAM transaction is
				// issued for it. The cursor still advances exactly as a
				// full miss scan would, so the traversal matches the
				// unfiltered pipeline line for line.
				p.tagSkips++
				op.probes += lineEnd - op.idx
				op.idx = lineEnd
				if op.probes >= a.size {
					p.complete(t, op, false)
					return
				}
				if op.idx == a.size {
					op.idx = 0
				}
				p.reprobes++
				t.Compute(queueOpCycles)
				t.Prefetch(a.tagLine(op.idx))
				p.q[p.head&p.mask] = op
				p.head++
				return
			}
			// Candidate line: pull the data line and revisit at the head
			// once it has (likely) arrived — the extra queue pass is the
			// filter's latency cost on admitted lines.
			op.checked = true
			t.Compute(queueOpCycles)
			t.Prefetch(a.line(op.idx))
			p.q[p.head&p.mask] = op
			p.head++
			return
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
					if a.tags != nil {
						// Publish the tag: one extra store on the sidecar
						// line (the real table's PublishTag CAS).
						a.tags[op.idx] = tag8(op.fp)
						t.Access(a.tagLine(op.idx), memsim.Store)
					}
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
		if p.tagged {
			op.checked = false
			t.Prefetch(a.tagLine(op.idx))
		} else {
			t.Prefetch(a.line(op.idx))
		}
		p.q[p.head&p.mask] = op
		p.head++
		return
	}
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
