package dramhit

import (
	"time"

	"dramhit/internal/obs"
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
// id, the key's hash (stage two's prefetch target) and the latency stamp. No
// probe cursor is needed — the bucket engine resolves the whole probe in the
// drain call.
type bytePending struct {
	key     []byte
	val     []byte
	id      uint64
	hv      uint64
	startNS int64 // submission time, set only when op-latency tracking is on
	op      table.Op
}

// OnByteComplete arms the byte pipeline with its completion callback and
// allocates the ring (same capacity as the uint64 ring, so both pipelines
// honor the table's prefetch window). Must be called before SubmitBytes and
// only while no byte requests are in flight. Bucket layout only.
func (h *Handle) OnByteComplete(fn func(ByteCompletion)) {
	h.requireBucket()
	if h.PendingBytes() != 0 {
		panic("dramhit: OnByteComplete with byte requests in flight")
	}
	h.onByte = fn
	if h.byteQ == nil {
		h.byteQ = make([]bytePending, len(h.q))
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
// servers issue them synchronously via UpsertBytes. Byte requests order
// only against other byte requests; Flush the uint64 pipeline first when
// the two APIs may touch aliasing keys (see GetBytes).
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
	hv := h.t.bkt.HashOf(key)
	h.t.bkt.Prefetch(hv)
	h.stats.Lines++
	if h.hot != nil {
		// Byte keys are ranked by hash in the hot-key sketch: the sketch
		// stores uint64 identities, and the full hash is the stable one.
		h.hot.Offer(hv)
	}
	p := bytePending{key: key, val: value, id: id, hv: hv, op: op}
	if h.opLat {
		p.startNS = time.Now().UnixNano()
	}
	h.byteQ[h.bhead&h.mask] = p
	h.bhead++
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

// drainByte resolves the oldest byte request against the bucket engine and
// fires the completion callback. A probe is two dependent misses, so the
// ring prefetches in two stages: the bucket line at SubmitBytes, and the
// candidate records here, for the request now at mid-ring — its bucket line
// has had window/2 submissions to arrive, and its records get the other
// window/2 before its own drain. In steady state every drain is caused by a
// submission, so this runs once per SubmitBytes; during FlushBytes it keeps
// staging the younger half of the ring.
func (h *Handle) drainByte() {
	if mid := h.btail + h.window/2; mid < h.bhead {
		h.t.bkt.PrefetchRecords(h.byteQ[mid&h.mask].hv)
	}
	slot := &h.byteQ[h.btail&h.mask]
	p := *slot
	*slot = bytePending{} // release the caller's buffers promptly
	h.btail++

	preL, preH := h.bh.Lines, h.bh.Hops
	var v []byte
	var found bool
	switch p.op {
	case table.Get:
		v, found = h.bh.Get(p.key)
	case table.Put:
		h.stats.CASAttempts++
		found = h.bh.Put(p.key, p.val)
	default: // Delete — Upsert was rejected at submit
		h.stats.CASAttempts++
		found = h.bh.Delete(p.key)
	}
	h.foldBucketStats(preL, preH)
	// A byte Put always succeeds (countOp's hit convention for Puts), while
	// the completion's Found carries the existed bit.
	hit := found
	if p.op == table.Put {
		hit = true
	}
	h.countOp(p.op, hit)
	if h.opLat && p.startNS != 0 {
		lat := time.Now().UnixNano() - p.startNS
		h.obsw.Op[obs.OpClass(p.op, hit)].Record(uint64(lat))
	}
	h.onByte(ByteCompletion{ID: p.id, Op: p.op, Value: v, Found: found})
}
