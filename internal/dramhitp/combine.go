// In-window request combining for the partitioned table (Config.Combining).
//
// The two handle kinds merge duplicate-key work at opposite ends of the
// delegation fabric:
//
//   - WriteHandle coalesces Upserts: a small per-handle window holds
//     (key, delta) pairs and folds a duplicate key's delta into the held
//     entry instead of sending a second delegation message. Held entries
//     drain on window overflow and — before anything that could observe
//     them — on Flush, Barrier, Close, and same-key Put/Delete, so the
//     partition owner still sees one linearizable per-key stream.
//
//   - ReadHandle piggybacks Gets: a tag-byte sidecar over the prefetch
//     ring (same scheme as dramhit.Handle) spots an in-flight lookup of
//     the same key; the newcomer chains onto it and the one probe's
//     result fans out to every chained request ID. A chain that outgrows
//     the response buffer parks its resolved leader at the queue head and
//     resumes on the next process call, so backpressure never drops a
//     response.
//
// Both sides touch memory exactly once per distinct in-flight key: a fold
// or a piggyback costs no delegation slot, no prefetch, and no probe.
package dramhitp

import (
	"math/bits"
	"time"

	"dramhit/internal/delegation"
	"dramhit/internal/obs"
	"dramhit/internal/simd"
	"dramhit/internal/table"
)

// coalesceWindow is the WriteHandle hold capacity. Small and fixed: the
// scan is a linear pass over at most 16 resident keys (two cache lines),
// cheaper than the delegation enqueue it saves even on a miss.
const coalesceWindow = 16

// maxCombinedGets caps one leader's piggyback chain so a single hot key
// cannot grow an unbounded merged-node arena.
const maxCombinedGets = 64

// rpending.state values. A parked leader (stateHit/stateMiss) has resolved
// its probe and is only waiting for response-buffer space to finish
// emitting its chain.
const (
	stateProbing = iota
	stateHit
	stateMiss
)

// rmerged is one piggybacked Get: just the request ID to answer with the
// leader's result, and the chain link (1+index; 0 terminates).
type rmerged struct {
	id   uint64
	next int32
}

// holdUpsert folds delta into a held same-key entry, or holds a new one.
// Partition fullness is checked at hold time, mirroring send, so the
// caller sees the same drop signal the direct path would give it.
func (w *WriteHandle) holdUpsert(key, delta uint64) bool {
	for i := 0; i < w.cn; i++ {
		if w.ckeys[i] == key {
			w.cvals[i] += delta
			w.Combined++
			return true
		}
	}
	t := w.t
	part := t.partOf(key)
	if t.layout != table.LayoutBucket && t.parts[part].full.Load() {
		t.dropped.Add(1)
		return false
	}
	if w.cn == coalesceWindow {
		w.flushHeld()
	}
	w.ckeys[w.cn] = key
	w.cvals[w.cn] = delta
	w.cn++
	return true
}

// flushHeld delegates every held upsert to its partition owner. Fullness
// was checked at hold time (and putLocal re-checks capacity regardless),
// so the flush sends unconditionally.
func (w *WriteHandle) flushHeld() {
	t := w.t
	for i := 0; i < w.cn; i++ {
		part := t.partOf(w.ckeys[i])
		w.p.Send(t.ownerOf(part), delegation.Message{A: w.ckeys[i], B: w.cvals[i], Aux: uint64(table.Upsert)})
	}
	w.sends += uint64(w.cn)
	w.cn = 0
}

// flushKey releases just the held entry for key, preserving per-key
// operation order when a Put or Delete trails a held Upsert.
func (w *WriteHandle) flushKey(key uint64) {
	for i := 0; i < w.cn; i++ {
		if w.ckeys[i] != key {
			continue
		}
		t := w.t
		part := t.partOf(key)
		w.p.Send(t.ownerOf(part), delegation.Message{A: key, B: w.cvals[i], Aux: uint64(table.Upsert)})
		w.sends++
		w.cn--
		w.ckeys[i] = w.ckeys[w.cn]
		w.cvals[i] = w.cvals[w.cn]
		return
	}
}

// push publishes the entry its caller has just written into the head slot
// (Submit constructs a new lookup there, reprobe moves the queue-head one
// there): it mirrors the tag into the ring's tag sidecar so later Submits
// can spot it with one byte-wide scan per eight slots, and advances head.
// The slot is the entry's only home: nothing is copied in or out.
func (r *ReadHandle) push() {
	s := r.head & r.mask
	p := &r.q[s]
	if r.combine {
		shift := uint(s&7) * 8
		r.rtags[s>>3] = r.rtags[s>>3]&^(0xff<<shift) | uint64(p.tag)<<shift
		r.tagcnt[p.tag]++
	}
	r.head++
	if p.trace != 0 {
		// First entry (probes == 0) is the submission; a re-push with probe
		// progress is a line crossing's reprobe.
		if p.probes == 0 {
			r.trace.Record(p.trace, obs.EvSubmit, uint8(table.Get), p.key, 0)
		} else {
			r.trace.Record(p.trace, obs.EvReprobe, uint8(table.Get), p.key, uint32(p.probes))
		}
	}
}

// pop retires the queue-head position, releasing the slot's tag byte from
// the per-tag occupancy counts. A reprobe's push re-increments the same tag;
// a parked leader released its count (and cleared its byte) when it parked,
// so here its decrement lands on the never-consulted entry 0.
func (r *ReadHandle) pop() {
	if r.combine {
		s := r.tail & r.mask
		r.tagcnt[uint8(r.rtags[s>>3]>>(uint(s&7)*8))]--
	}
	r.tail++
}

// combineScan looks for a live pending lookup of key in the ring; the
// newest match wins. Tag bytes are a prefilter (eight ring slots per scan
// word); a matching byte is confirmed against the slot's key. Bytes are
// never cleared on dequeue, so validity is positional: a slot's byte was
// written by its last enqueue and therefore describes either the current
// occupant or a dead position, and dead positions are rejected by
// reconstructing the slot's queue position from tail.
// Only the words covering live positions [tail, head) are scanned, and the
// caller's tagcnt gate means the scan runs only when some live slot shares
// the tag byte. Words are walked newest-first: the queue is never full, so
// each word's live positions are consecutive and strictly newer than those
// of the words behind it, which lets the scan return at the first word with
// a key-confirmed match — under skew the duplicate was just enqueued, so
// the hot case touches one word.
func (r *ReadHandle) combineScan(key uint64, tag uint8) int {
	nw := len(r.rtags)
	s0 := r.tail & r.mask
	wc := ((s0 & 7) + r.head - r.tail + 7) >> 3
	if wc > nw {
		wc = nw
	}
	for i := wc - 1; i >= 0; i-- {
		w := (s0>>3 + i) & (nw - 1)
		m := simd.MatchBytes8(r.rtags[w], tag)
		best := -1
		for m != 0 {
			lane := bits.TrailingZeros8(m)
			m &= m - 1
			s := w<<3 | lane
			if s > r.mask {
				continue
			}
			pos := r.tail + ((s - r.tail) & r.mask)
			if pos < r.head && pos > best && r.q[s].key == key {
				best = pos
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// tryCombine chains request id onto the pending leader at queue position
// pos. It refuses parked leaders (their result is already fixed; a request
// submitted after the park must observe any later write) and full chains.
func (r *ReadHandle) tryCombine(id uint64, pos int) bool {
	lead := &r.q[pos&r.mask]
	if lead.state != stateProbing || lead.ngets >= maxCombinedGets {
		return false
	}
	r.Piggybacked++
	n := r.allocMerged()
	r.merged[n] = rmerged{id: id, next: lead.chain}
	lead.chain = n + 1
	lead.ngets++
	if lead.trace != 0 {
		r.trace.Record(lead.trace, obs.EvCombine, uint8(table.Get), lead.key, uint32(lead.ngets))
	}
	return true
}

// allocMerged pops the free list or grows the arena (amortized; steady
// state recycles nodes and never allocates).
func (r *ReadHandle) allocMerged() int32 {
	if r.mfree != 0 {
		n := r.mfree - 1
		r.mfree = r.merged[n].next
		return n
	}
	r.merged = append(r.merged, rmerged{})
	return int32(len(r.merged) - 1)
}

// emitChain answers p's piggybacked Gets with the leader's (v, ok) while
// response space lasts, recycling each node. Reports whether the chain
// fully drained.
func (r *ReadHandle) emitChain(p *rpending, v uint64, ok bool, resps []table.Response, nresp *int) bool {
	for p.chain != 0 {
		if *nresp >= len(resps) {
			return false
		}
		n := p.chain - 1
		node := r.merged[n]
		resps[*nresp] = table.Response{ID: node.id, Value: v, Found: ok}
		*nresp++
		r.complete(ok)
		p.chain = node.next
		r.merged[n].next = r.mfree
		r.mfree = n + 1
	}
	return true
}

// retire completes the oldest pending lookup p (the queue-head slot) with
// (v, ok): it writes the leader's response, then fans the result out to the
// piggyback chain. If resps fills mid-chain the leader parks where it sits,
// its result frozen in the slot's state/rval and its tag byte cleared (no
// further combines may land on a resolved leader), and processOldest
// resumes the emission on the next call. The caller has already reserved
// the leader's response slot and must not advance tail itself.
func (r *ReadHandle) retire(p *rpending, v uint64, ok bool, resps []table.Response, nresp *int) (blocked bool) {
	resps[*nresp] = table.Response{ID: p.id, Value: v, Found: ok}
	*nresp++
	r.complete(ok)
	if p.start != 0 {
		// Pipeline residency of the leader: submit to retire. Piggybacked
		// chain members share the leader's probe and are not re-timed.
		r.obsw.Op[obs.OpClass(table.Get, ok)].Record(uint64(time.Now().UnixNano() - p.start))
	}
	if p.trace != 0 {
		var arg uint32
		if ok {
			arg = 1
		}
		r.trace.Record(p.trace, obs.EvComplete, uint8(table.Get), p.key, arg)
	}
	if r.obsw != nil && p.ngets != 0 {
		r.obsw.MaxGauge(obs.GChainMax, uint64(p.ngets))
	}
	if p.chain == 0 || r.emitChain(p, v, ok, resps, nresp) {
		r.pop()
		return false
	}
	if ok {
		p.state = stateHit
	} else {
		p.state = stateMiss
	}
	if r.obsw != nil {
		// Backpressure park: chain emission stalled on response space.
		r.obsw.Inc(obs.CParks)
	}
	p.rval = v
	s := r.tail & r.mask
	r.tagcnt[p.tag]-- // released here, not at the eventual pop (byte now 0)
	r.rtags[s>>3] &^= 0xff << (uint(s&7) * 8)
	return true
}
