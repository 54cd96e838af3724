package dramhit

import (
	"time"

	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// This file is the network-facing byte pipeline: the same
// prefetch-then-drain discipline as Submit/Flush, applied to byte-string
// requests and completed through a callback instead of response slices.
//
// On the bucket layout a probe resolves in one synchronous engine call once
// its home bucket line and candidate records are resident, so the byte
// pipeline needs no reprobe or re-enqueue machinery: requests drain strictly
// in submission order, which means the completion callback sees FIFO
// completions. A protocol server can therefore append each reply to its
// connection write buffer directly from the callback — pipelined requests on
// one connection come back in request order with no per-op channels and no
// reorder buffer.
//
// The caller owns key and value buffers until the request's completion
// fires (at most one FlushBytes later). This matches the arena contract of
// the internal/resp and internal/mctext readers: parse a wire batch, submit
// it, FlushBytes, then Release the parser arena.

// ByteCompletion reports one finished byte-string request to the
// OnByteComplete callback.
type ByteCompletion struct {
	// ID echoes the submission's id verbatim (a connection sequence number,
	// a pointer cookie — the pipeline never interprets it).
	ID uint64
	// Op is the submitted operation.
	Op table.Op
	// Value is the value read by a Get (nil on miss). It aliases the arena
	// record: valid until the key is overwritten, so consume it inside the
	// callback or copy. Nil for Put and Delete.
	Value []byte
	// Found reports a Get hit, a Delete that removed a key, or — for Put —
	// that the key already existed (the Put itself always succeeds).
	Found bool
}

// bytePending is one in-flight byte request: the caller's buffers, the echo
// id, the key's hash (stage two's prefetch target) with the region it routes
// to, and the latency stamp. No probe cursor is needed — the bucket engine
// resolves the whole probe in the drain call.
type bytePending struct {
	key     []byte
	val     []byte
	id      uint64
	hv      uint64
	startNS int64 // submission time, set only when op-latency tracking is on
	part    uint32
	op      table.Op
}

// OnByteComplete arms the byte pipeline with its completion callback and
// allocates the ring (the capacity NewHandle sized for the table's prefetch
// window). Must be called before SubmitBytes and only while no byte requests
// are in flight. Bucket layout only.
func (h *Handle) OnByteComplete(fn func(ByteCompletion)) {
	h.requireLayout(table.LayoutBucket)
	if h.PendingBytes() != 0 {
		panic("dramhit: OnByteComplete with byte requests in flight")
	}
	h.onByte = fn
	if h.byteQ == nil {
		h.byteQ = make([]bytePending, h.mask+1)
	}
}

// PendingBytes returns the number of in-flight byte requests.
func (h *Handle) PendingBytes() int { return h.bhead - h.btail }

// SubmitBytes enqueues one byte-string request (Get, Put, or Delete) after
// prefetching its home bucket line, draining the oldest request first if
// the window is full. The completion callback fires for drained requests
// before SubmitBytes returns — in submission order, as always.
//
// Upserts are not accepted: read-modify-writes are rare on the network path
// (INCR/DECR) and their closure would defeat the flat completion record, so
// servers issue them synchronously via UpsertBytes.
func (h *Handle) SubmitBytes(op table.Op, id uint64, key, value []byte) {
	if h.onByte == nil {
		panic("dramhit: SubmitBytes before OnByteComplete")
	}
	if op == table.Upsert {
		panic("dramhit: SubmitBytes does not accept Upsert; use UpsertBytes")
	}
	for h.PendingBytes() >= h.window {
		h.drainByte()
	}
	hv := h.regs[0].bkt.HashOf(key) // every region shares one hash
	part := hashfn.ShardRange(hv, h.nreg)
	h.regs[part].bkt.Prefetch(hv)
	h.stats.Lines++
	if h.hot != nil {
		// Byte keys are ranked by hash in the hot-key sketch: the sketch
		// stores uint64 identities, and the full hash is the stable one.
		h.hot.OfferSampled(hv)
	}
	// The request is built in the head slot and stays there until its drain
	// (the uint64 ring's rule, see Submit); every field is assigned.
	p := &h.byteQ[h.bhead&h.mask]
	p.key, p.val, p.id, p.hv, p.part, p.op, p.startNS = key, value, id, hv, uint32(part), op, 0
	if h.opLat {
		p.startNS = time.Now().UnixNano()
	}
	h.bhead++
	// Stage two, first trigger: every entry that now has window/2 later
	// submissions behind it (while the ring refills after a flush, no drain
	// would do it). At least one: its own submission never stages an entry.
	h.stageBytes(h.bhead - max(h.window/2, 1))
}

// FlushBytes drains every in-flight byte request, firing the completion
// callback for each in submission order, then publishes observability
// counters (the byte pipeline's Flush-boundary publish, same cadence as
// the uint64 path's).
func (h *Handle) FlushBytes() {
	for h.PendingBytes() > 0 {
		h.drainByte()
	}
	if h.obsw != nil {
		h.obsPublish()
	}
}

// stageBytes runs stage two — the candidate records' prefetch, off the bucket
// line stage one requested — for every byte-ring entry below position upto
// that has not had it. bstaged is the one monotone cursor both triggers
// advance, so an entry is staged exactly once, by whichever comes first, and a
// window the governor changed between calls cannot make it skip or repeat one.
func (h *Handle) stageBytes(upto int) {
	for ; h.bstaged < upto; h.bstaged++ {
		p := &h.byteQ[h.bstaged&h.mask]
		h.regs[p.part].bkt.PrefetchRecords(p.hv, slotarr.SpanUnknown)
		if h.stageHook != nil {
			h.stageHook(p.hv)
		}
	}
}

// drainByte resolves the oldest byte request, in its ring slot, against the
// bucket engine and fires the completion callback. A probe is two dependent
// misses, so the ring prefetches in two stages (DESIGN.md §3.1.8): the bucket
// line at SubmitBytes, the candidate records half a window later. The second
// trigger is here: everything within window/2 of the tail, clamped to the head
// — in steady state the one entry at mid-ring, during FlushBytes the younger
// half of the ring, for a batch shorter than half a window all of it at once.
func (h *Handle) drainByte() {
	h.stageBytes(min(h.btail+h.window/2+1, h.bhead))
	p := &h.byteQ[h.btail&h.mask]
	h.btail++

	bh := h.bhs[p.part]
	preL, preH := bh.Lines, bh.Hops
	c := ByteCompletion{ID: p.id, Op: p.op}
	switch p.op {
	case table.Get:
		c.Value, c.Found = bh.GetHashed(p.hv, p.key)
	case table.Put:
		h.stats.CASAttempts++
		c.Found = bh.PutHashed(p.hv, p.key, p.val)
	default: // Delete — Upsert was rejected at submit
		h.stats.CASAttempts++
		c.Found = bh.DeleteHashed(p.hv, p.key)
	}
	h.foldBucketStats(bh, preL, preH)
	// A byte Put always succeeds (countOp's hit convention for Puts), while
	// the completion's Found carries the existed bit.
	hit := c.Found || p.op == table.Put
	h.countOp(p.op, hit)
	if h.opLat && p.startNS != 0 {
		lat := time.Now().UnixNano() - p.startNS
		h.obsw.Op[obs.OpClass(p.op, hit)].Record(uint64(lat))
	}
	// Release the caller's buffers, then complete: the slot is not touched
	// once the callback runs, so a callback that submits may recycle it.
	p.key, p.val = nil, nil
	h.onByte(c)
}
