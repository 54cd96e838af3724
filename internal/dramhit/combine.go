package dramhit

import (
	"math/bits"
	"time"

	"dramhit/internal/obs"
	"dramhit/internal/simd"
	"dramhit/internal/table"
)

// This file is the in-window request-combining stage (Config.Combining):
// Submit merges a request whose key already has a pending request in the
// handle's prefetch queue instead of enqueueing it. The headline workloads
// are exactly the ones where keys recur within a window — k-mer counting is
// upsert-dominated with massive repetition, and zipfian request streams
// concentrate on a few hot keys — yet the uncombined pipeline pays a
// prefetch, a probe and an atomic per duplicate on the same cache line.
//
// Detection is an 8-wide SWAR scan of the ring's tag-fingerprint bytes
// (ptags) followed by a key confirm on the matched slots; the window is at
// most 64 entries, so no map is needed and the scan stays in two or three
// cache-hot words. Merging rules:
//
//   - Upsert onto a pending Upsert folds the increment into the pending
//     request's value and completes immediately (the fold IS the op).
//   - Get onto a pending Get piggybacks: one probe result fans out to N
//     responses, each carrying its own request ID.
//   - Get onto a pending Put/Upsert is answered by store-to-load forwarding
//     from the in-flight value when the write completes.
//   - Delete never combines in either direction: it is a combine barrier
//     for its key, so deletions keep their exact uncombined semantics.
//
// A merged request issues no prefetch, loads no key line and attempts no
// CAS — zero additional memory transactions — which is what the combine-ab
// experiment measures via KeyLines+CASAttempts per op.

// Leader resolution states. A pending is stateProbing until its probe
// resolves; a leader whose combined-Get chain could not be fully emitted
// (response buffer filled) parks at the queue head in stateHit/stateMiss
// with its resolved value in rval, and processOldest resumes the emission.
const (
	stateProbing = iota
	stateHit
	stateMiss
)

// maxCombinedGets bounds one leader's chain. A same-key Get burst never
// fills the window (merging doesn't grow the queue), so without a bound the
// chain — and the response debt it parks at the queue head — would grow
// with the burst. At the cap the next Get enqueues as a fresh leader, which
// the scan then finds as the newest match for the burst's remainder.
const maxCombinedGets = 64

// mergedGet is a Get absorbed by a pending leader, awaiting the leader's
// probe result. Entries live in Handle.merged and are linked through next
// with a 1+index encoding (0 terminates); free entries are recycled through
// Handle.mfree, so the steady-state hot path allocates nothing.
type mergedGet struct {
	req     table.Request
	startNS int64
	next    int32
}

// combineScan returns the queue position of the newest pending request for
// key, or -1. Position, not slot: the ring reuses slots, and the byte
// sidecar is never cleared at dequeue, so a matched slot s is validated by
// reconstructing the one position in [tail, tail+cap) that maps to it —
// pos is live iff pos < head, and a live position's enqueue was the last
// write of both q[s] and its tag byte, so the match is against current
// contents. Stale bytes past capacity (rings narrower than 8 slots) never
// match because they stay zero and published tags are 1..255.
// Only the words covering live positions [tail, head) are scanned — for the
// default window that is at most ceil(window/8)+1 of the ring's words — and
// the caller's tagcnt gate means the scan runs only when some live slot
// shares the tag byte. Words are walked newest-first: the queue is never
// full, so each word's live positions are consecutive and every word holds
// strictly newer positions than the words behind it, which lets the scan
// return at the first word with a key-confirmed match — under skew the
// duplicate was just enqueued, so the hot case touches one word.
func (h *Handle) combineScan(key uint64, tag uint8) int {
	nw := len(h.ptags)
	s0 := h.tail & h.mask
	wc := ((s0 & 7) + h.head - h.tail + 7) >> 3
	if wc > nw {
		wc = nw
	}
	for i := wc - 1; i >= 0; i-- {
		w := (s0>>3 + i) & (nw - 1)
		m := simd.MatchBytes8(h.ptags[w], tag)
		best := -1
		for m != 0 {
			s := w*8 + bits.TrailingZeros8(m)
			m &= m - 1
			pos := h.tail + ((s - h.tail) & h.mask)
			if pos < h.head && pos > best && h.q[s].req.Key == key {
				best = pos
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// tryCombine merges req into the pending leader at queue position pos.
// A false return means the caller must enqueue normally: the leader is a
// Delete (the barrier), the op pair doesn't combine, the leader already
// resolved (parked mid-emission), or its chain is at capacity.
func (h *Handle) tryCombine(req *table.Request, pos int) bool {
	lead := &h.q[pos&h.mask]
	if lead.state != stateProbing || lead.req.Op == table.Delete {
		return false
	}
	switch req.Op {
	case table.Upsert:
		if lead.req.Op != table.Upsert {
			return false
		}
		// Folding is the whole operation: the leader's one AddValue will
		// apply the combined sum, so this request is already as complete as
		// the uncombined pipeline would ever make it.
		lead.req.Value += req.Value
		h.stats.CombinedUpserts++
		if lead.trace != 0 {
			h.trace.Record(lead.trace, obs.EvCombine, uint8(req.Op), req.Key, uint32(lead.ngets))
		}
		var startNS int64
		if h.onComplete != nil {
			startNS = time.Now().UnixNano()
		}
		h.finishReq(req, startNS, 0, table.Upsert, true)
		return true
	case table.Get:
		if lead.ngets >= maxCombinedGets {
			return false
		}
		switch lead.req.Op {
		case table.Get:
			h.stats.PiggybackedGets++
		case table.Put, table.Upsert:
			h.stats.ForwardedGets++
		default:
			return false
		}
		n := mergedGet{req: *req, next: lead.chain}
		if h.onComplete != nil {
			n.startNS = time.Now().UnixNano()
		}
		idx := h.allocMerged()
		h.merged[idx] = n
		lead.chain = idx + 1
		lead.ngets++
		if lead.trace != 0 {
			h.trace.Record(lead.trace, obs.EvCombine, uint8(req.Op), req.Key, uint32(lead.ngets))
		}
		return true
	}
	// Put never combines: overwrite-after-overwrite already costs one store
	// either way, and keeping Puts literal keeps last-writer semantics
	// exactly those of the uncombined pipeline.
	return false
}

// allocMerged returns a free arena index, recycling before growing.
func (h *Handle) allocMerged() int32 {
	if h.mfree != 0 {
		i := h.mfree - 1
		h.mfree = h.merged[i].next
		return i
	}
	h.merged = append(h.merged, mergedGet{})
	return int32(len(h.merged) - 1)
}

// emitChain pops combined Gets off p's chain while resps has room, giving
// each its own response built from the leader's one probe result. Reports
// whether the chain fully drained; a false return leaves the remainder
// linked for a parked resume.
func (h *Handle) emitChain(p *pending, v uint64, found bool, resps []table.Response, nresp *int) bool {
	for p.chain != 0 {
		if *nresp >= len(resps) {
			return false
		}
		n := &h.merged[p.chain-1]
		rest := n.next
		n.next, h.mfree = h.mfree, p.chain // node back on the free list
		p.chain = rest
		p.ngets--
		resps[*nresp] = table.Response{ID: n.req.ID, Value: v, Found: found}
		*nresp++
		h.finishReq(&n.req, n.startNS, 0, table.Get, found)
	}
	return true
}

// retire completes the leader p (the queue-head slot), resolved with value v
// and hit status found (fail additionally marks a table-full Put/Upsert),
// then emits its combined chain. The caller must have verified response
// space when op is Get and must not have advanced h.tail: retire advances
// it, or — when the chain outlives the response buffer — parks the resolved
// leader where it sits (state, rval and the shrunken chain are written into
// the slot) for processOldest to resume. A parked slot's ptag byte is
// cleared so no new request can combine onto an already-resolved probe.
func (h *Handle) retire(p *pending, op table.Op, v uint64, found, fail bool, resps []table.Response, nresp *int) (wrote, blocked bool) {
	if op == table.Get {
		resps[*nresp] = table.Response{ID: p.req.ID, Value: v, Found: found}
		*nresp++
	}
	if fail {
		h.stats.Failed++
	}
	if h.obsw != nil && p.ngets != 0 {
		h.obsw.MaxGauge(obs.GChainMax, uint64(p.ngets))
	}
	h.finish(p, op, found)
	if p.chain == 0 || h.emitChain(p, v, found, resps, nresp) {
		h.pop()
		return true, false
	}
	if found {
		p.state = stateHit
	} else {
		p.state = stateMiss
	}
	if h.obsw != nil {
		// Backpressure park: the chain outlived the response buffer and the
		// resolved leader freezes the queue head until the caller drains.
		h.obsw.Inc(obs.CParks)
	}
	p.rval = v
	s := h.tail & h.mask
	h.tagcnt[p.tag]-- // released here, not at the eventual pop (byte now 0)
	h.ptags[s>>3] &^= 0xff << (uint(s&7) * 8)
	return false, true
}
