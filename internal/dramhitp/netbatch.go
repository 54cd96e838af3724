package dramhitp

import (
	"time"

	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
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
	// The lookup is built in the head slot and stays there until its drain;
	// every field is assigned.
	p := &r.bq[r.bqhead&r.mask]
	p.key, p.id, p.part, p.hv, p.start = key, id, part, hv, 0
	if r.opLat {
		p.start = time.Now().UnixNano()
	}
	r.bqhead++
	// Stage two, first trigger: entries with window/2 (at least one) later
	// lookups behind them (see dramhit's SubmitBytes).
	r.stageGetBytes(r.bqhead - max(r.window/2, 1))
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

// stageGetBytes runs stage two for every byte lookup below position upto that
// has not had it (dramhit's stageBytes states the cursor rule).
func (r *ReadHandle) stageGetBytes(upto int) {
	for ; r.bqstaged < upto; r.bqstaged++ {
		m := &r.bq[r.bqstaged&r.mask]
		r.t.parts[m.part].bkt.PrefetchRecords(m.hv, slotarr.SpanUnknown)
		if r.stageHook != nil {
			r.stageHook(m.hv)
		}
	}
}

// drainGetBytes resolves the oldest byte lookup, in its ring slot, against its
// partition's bucket engine and fires the completion callback. The home bucket
// line was prefetched at submit; stage two's second trigger is here (see
// dramhit's drainByte).
func (r *ReadHandle) drainGetBytes() {
	r.stageGetBytes(min(r.bqtail+r.window/2+1, r.bqhead))
	p := &r.bq[r.bqtail&r.mask]
	r.bqtail++

	bh := r.rbhs[p.part]
	pre := bh.Lines + bh.Hops
	v, ok := bh.GetHashed(p.hv, p.key)
	r.Filter.KeyLines += bh.Lines + bh.Hops - pre
	r.complete(ok)
	if p.start != 0 {
		r.obsw.Op[obs.OpClass(table.Get, ok)].Record(uint64(time.Now().UnixNano() - p.start))
	}
	id := p.id
	p.key = nil // release the caller's buffer; the slot is not touched again
	r.onBGet(id, v, ok)
}
