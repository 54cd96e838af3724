package dramhitp

import (
	"time"

	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// The partitioned reader's byte-lookup pipeline: the dramhitp twin of
// dramhit's netbatch. Reads are not delegated — any thread probes any
// partition directly — so a byte Get pipelines exactly like a uint64 one:
// prefetch the home bucket line of the key's partition at submit, resolve
// synchronously at drain. Completions fire in submission order (the bucket
// engine resolves a probe in one call, so there is no out-of-order retire),
// which is what lets a protocol server write replies straight into a
// connection buffer from the callback.
//
// Writes stay on the WriteHandle's synchronous byte API (PutBytes and
// friends): variable-length records do not fit delegation messages, and the
// engine's CAS protocol already serializes racing writers.

// bGetPending is one in-flight byte lookup: the caller's key (owned by the
// caller until the completion fires), the echo id, and the partition/hash
// pair located at submit so the drain skips re-hashing.
type bGetPending struct {
	key   []byte
	id    uint64
	part  uint64
	hv    uint64
	start int64 // submit stamp for op-latency recording; 0 = not armed
}

// OnGetBytesComplete arms the byte-lookup pipeline with its completion
// callback and allocates the ring (same capacity as the uint64 ring). Must
// be called before SubmitGetBytes and only while no byte lookups are in
// flight. Bucket layout only. value aliases the arena record — consume it
// inside the callback or copy.
func (r *ReadHandle) OnGetBytesComplete(fn func(id uint64, value []byte, found bool)) {
	r.t.requireBucket()
	if r.PendingGetBytes() != 0 {
		panic("dramhitp: OnGetBytesComplete with byte lookups in flight")
	}
	r.onBGet = fn
	if r.bq == nil {
		r.bq = make([]bGetPending, len(r.q))
	}
}

// PendingGetBytes returns the number of in-flight byte lookups.
func (r *ReadHandle) PendingGetBytes() int { return r.bqhead - r.bqtail }

// SubmitGetBytes enqueues one byte-string lookup after prefetching its home
// bucket line, draining the oldest first if the window is full. Drained
// completions fire before SubmitGetBytes returns, in submission order. Byte
// lookups order only against other byte lookups on this handle.
func (r *ReadHandle) SubmitGetBytes(id uint64, key []byte) {
	if r.onBGet == nil {
		panic("dramhitp: SubmitGetBytes before OnGetBytesComplete")
	}
	for r.PendingGetBytes() >= r.window {
		r.drainGetBytes()
	}
	part, hv := r.t.locateBucketBytes(key)
	r.t.parts[part].bkt.Prefetch(hv)
	if r.hot != nil {
		// Byte keys rank by hash in the sketch (uint64 identities).
		r.hot.OfferSampled(hv)
	}
	p := bGetPending{key: key, id: id, part: part, hv: hv}
	if r.opLat {
		p.start = time.Now().UnixNano()
	}
	r.bq[r.bqhead&r.mask] = p
	r.bqhead++
}

// FlushGetBytes drains every in-flight byte lookup, firing the completion
// callback for each in submission order, then publishes observability
// counters (the byte pipeline's Flush-boundary publish).
func (r *ReadHandle) FlushGetBytes() {
	for r.PendingGetBytes() > 0 {
		r.drainGetBytes()
	}
	if r.obsw != nil {
		r.obsPublish()
	}
}

// drainGetBytes resolves the oldest byte lookup against its partition's
// bucket engine and fires the completion callback. The home bucket line was
// prefetched at submit; the lookup now at mid-ring gets stage two here — its
// candidate records, read off the bucket line that has had window/2
// submissions to arrive (see dramhit's drainByte).
func (r *ReadHandle) drainGetBytes() {
	if mid := r.bqtail + r.window/2; mid < r.bqhead {
		m := &r.bq[mid&r.mask]
		r.t.parts[m.part].bkt.PrefetchRecords(m.hv)
	}
	slot := &r.bq[r.bqtail&r.mask]
	p := *slot
	*slot = bGetPending{} // release the caller's buffer promptly
	r.bqtail++

	bh := r.rbhs[p.part]
	pre := bh.Lines + bh.Hops
	v, ok := bh.Get(p.key)
	r.Filter.KeyLines += bh.Lines + bh.Hops - pre
	r.complete(ok)
	if p.start != 0 {
		r.obsw.Op[obs.OpClass(table.Get, ok)].Record(uint64(time.Now().UnixNano() - p.start))
	}
	r.onBGet(p.id, v, ok)
}
