package dramhitp

import (
	"strconv"
	"time"

	"dramhit/internal/delegation"
	"dramhit/internal/governor"
	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/simd"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// WriteHandle is a per-goroutine writer endpoint. Updates are delegated to
// partition owners and return no result. With combining on (the default),
// duplicate-key Upserts fold into a small held window before delegation;
// held deltas drain on Flush, Barrier, Close, window overflow, and
// same-key Put/Delete, so owners still see one linearizable per-key
// stream. Obtain with NewWriteHandle and Close when the goroutine is done
// writing.
type WriteHandle struct {
	t        *Table
	p        *delegation.Producer
	coalesce bool
	cn       int
	ckeys    [coalesceWindow]uint64
	cvals    [coalesceWindow]uint64
	// Combined counts Upserts folded into a held entry instead of sent.
	Combined uint64
	// sends counts delegation messages dispatched (plain field, published
	// into obsw at Flush/Barrier/Close boundaries).
	sends uint64
	obsw  *obs.Worker
	// hot feeds the writer's hot-key sketch (nil unless the registry armed
	// EnableHotKeys); opLat times the synchronous submission cost of each
	// update — the delegation send or the local coalesce, not the owner-side
	// apply, which is what this handle can observe.
	hot   *obs.TopK
	opLat bool
	// wbhs holds this writer's per-partition bucket-engine handles (non-nil
	// iff the table's Layout is bucket). The byte-string operations execute
	// through them synchronously — direct to the engine, not delegated: a
	// variable-length record does not fit a delegation message, and the
	// engine's CAS protocol already serializes racing writers safely.
	wbhs []*slotarr.BucketHandle
}

// NewWriteHandle allocates the next producer slot. It panics if more
// handles are requested than Config.Producers.
func (t *Table) NewWriteHandle() *WriteHandle {
	id := int(t.handleSeq.Add(1)) - 1
	if id >= t.cfg.Producers {
		panic("dramhitp: more WriteHandles requested than Config.Producers")
	}
	w := &WriteHandle{t: t, p: t.fabric.Producer(id), coalesce: t.combine == table.CombineOn}
	if t.layout == table.LayoutBucket {
		w.wbhs = t.newPartHandles()
	}
	if t.obsReg != nil {
		w.obsw = t.obsReg.Worker("dramhitp-w" + strconv.Itoa(id))
		w.hot = w.obsw.Hot
		w.opLat = t.obsReg.OpLatencyEnabled()
	}
	return w
}

// requireBucket panics unless the table's Layout is bucket — the byte API
// has nowhere to store variable-length records on a flat table.
func (t *Table) requireBucket() {
	if t.layout != table.LayoutBucket {
		panic("dramhitp: byte-string API requires Config.Layout == table.LayoutBucket")
	}
}

// PutBytes stores value for a byte-string key, overwriting silently,
// reporting whether the key existed. Synchronous (direct to the partition
// engine, not delegated): it does not order against this handle's
// delegated uint64 updates until a Barrier, and a uint64 key k aliases the
// byte key of its 8-byte little-endian encoding.
func (w *WriteHandle) PutBytes(key, value []byte) (existed bool) {
	w.t.requireBucket()
	part, hv := w.t.locateBucketBytes(key)
	return w.wbhs[part].PutHashed(hv, key, value)
}

// UpsertBytes atomically read-modify-writes a byte-string key: fn receives
// the current value (nil, false when absent) and returns the value to
// store; under contention fn may run multiple times and exactly the final
// invocation's result is published. Synchronous, like PutBytes.
func (w *WriteHandle) UpsertBytes(key []byte, fn func(old []byte, present bool) []byte) (existed bool) {
	w.t.requireBucket()
	part, hv := w.t.locateBucketBytes(key)
	return w.wbhs[part].MutateHashed(hv, key, fn)
}

// DeleteBytes removes a byte-string key, reporting whether it was present.
// Synchronous, like PutBytes.
func (w *WriteHandle) DeleteBytes(key []byte) bool {
	w.t.requireBucket()
	part, hv := w.t.locateBucketBytes(key)
	return w.wbhs[part].DeleteHashed(hv, key)
}

// obsPublish copies the writer's plain counters into its registry shard and
// refreshes the delegation-backlog gauge. Called at Flush/Barrier/Close.
func (w *WriteHandle) obsPublish() {
	w.obsw.Store(obs.CQueueSends, w.sends)
	w.obsw.Store(obs.CCombinedUpserts, w.Combined)
	w.obsw.SetGauge(obs.GQueueDepth, uint64(w.p.Pending()))
}

// send routes an update to the owner of the key's partition, checking the
// partition-full flag first (a shared-state L1 hit in steady state, paper
// §3.2). It reports false if the update was denied.
func (w *WriteHandle) send(op table.Op, key, value uint64) bool {
	t := w.t
	if t.layout == table.LayoutBucket {
		// Bucket partitions resize themselves (no full flag) and reserved
		// keys are ordinary engine keys (no side slots): every update routes
		// straight to its partition's owner.
		part, _ := t.locateBucket(key)
		w.p.Send(t.ownerOf(part), delegation.Message{A: key, B: value, Aux: uint64(op)})
		w.sends++
		return true
	}
	if t.side.For(key) != nil {
		// Reserved keys are owned by consumer 0.
		w.p.Send(0, delegation.Message{A: key, B: value, Aux: uint64(op)})
		w.sends++
		return true
	}
	part, _ := t.locate(key)
	if op != table.Delete && t.parts[part].full.Load() {
		t.dropped.Add(1)
		return false
	}
	w.p.Send(t.ownerOf(part), delegation.Message{A: key, B: value, Aux: uint64(op)})
	w.sends++
	return true
}

// opStart/opEnd time the submission-side cost of one update into the
// handle's per-op-class histograms when the registry armed EnableOpLatency.
// The owner-side apply is asynchronous by design; Barrier is the
// read-your-writes point, so the distribution here prices what delegation
// puts ON the caller's critical path — the paper's argument, in a metric.
func (w *WriteHandle) opStart() int64 {
	if w.opLat {
		return time.Now().UnixNano()
	}
	return 0
}

func (w *WriteHandle) opEnd(start int64, op table.Op, hit bool) {
	if start != 0 {
		w.obsw.Op[obs.OpClass(op, hit)].Record(uint64(time.Now().UnixNano() - start))
	}
}

// Put requests an insert/overwrite. It returns false if the destination
// partition is full (the update is dropped, fire-and-forget semantics). A
// held coalesced Upsert of the same key is released first so the owner
// applies the two in submission order.
func (w *WriteHandle) Put(key, value uint64) bool {
	if w.hot != nil {
		w.hot.OfferSampled(key)
	}
	start := w.opStart()
	if w.cn > 0 {
		w.flushKey(key)
	}
	ok := w.send(table.Put, key, value)
	w.opEnd(start, table.Put, ok)
	return ok
}

// Upsert requests an insert-or-add of delta. With combining on, duplicate
// keys fold locally (see holdUpsert) and a window of distinct keys rides
// one delegation flush.
func (w *WriteHandle) Upsert(key, delta uint64) bool {
	if w.hot != nil {
		w.hot.OfferSampled(key)
	}
	start := w.opStart()
	var ok bool
	if !w.coalesce ||
		(w.t.layout != table.LayoutBucket && w.t.side.For(key) != nil) {
		ok = w.send(table.Upsert, key, delta)
	} else {
		ok = w.holdUpsert(key, delta)
	}
	w.opEnd(start, table.Upsert, ok)
	return ok
}

// Delete requests a tombstone, releasing any held same-key Upsert first so
// the owner applies the two in submission order.
func (w *WriteHandle) Delete(key uint64) {
	if w.hot != nil {
		w.hot.OfferSampled(key)
	}
	start := w.opStart()
	if w.cn > 0 {
		w.flushKey(key)
	}
	w.send(table.Delete, key, 0)
	// A delegated delete reports nothing back; class it as a hit (the
	// delete_miss class is for synchronous tables that observed the miss).
	w.opEnd(start, table.Delete, true)
}

// Flush publishes partially filled delegation sections, including any held
// coalesced Upserts. Call at batch boundaries so trailing updates are not
// stranded.
func (w *WriteHandle) Flush() {
	if w.cn > 0 {
		w.flushHeld()
	}
	w.p.Flush()
	if w.obsw != nil {
		w.obsPublish()
	}
}

// Barrier blocks until every update this handle sent has been executed by
// the partition owners (read-your-writes point). Held coalesced Upserts
// are released first so they are covered by the barrier.
func (w *WriteHandle) Barrier() {
	if w.cn > 0 {
		w.flushHeld()
	}
	w.p.Barrier()
	if w.obsw != nil {
		w.obsPublish()
	}
}

// Close flushes and releases the producer slot. Must be called exactly once
// per handle; the table cannot shut down until all issued handles are
// closed.
func (w *WriteHandle) Close() {
	if w.cn > 0 {
		w.flushHeld()
	}
	w.p.Close()
	if w.obsw != nil {
		w.obsPublish()
	}
}

// ReadHandle is a per-goroutine reader with the same prefetch-window
// pipeline as base DRAMHiT, probing partitions directly (reads are not
// delegated; any thread may read any partition).
type ReadHandle struct {
	t       *Table
	q       []rpending
	mask    int
	head    int
	tail    int
	window  int
	kernel  table.ProbeKernel
	filter  table.ProbeFilter
	combine bool
	// rtags mirrors the tag byte of each live ring slot (one byte per
	// slot, eight slots per word) so Submit can spot an in-flight lookup
	// of the same key without touching the pending structs. Nil when
	// combining is off.
	rtags []uint64
	// tagcnt counts live pending lookups per tag byte: push increments,
	// position retirement decrements (reading the byte back from rtags), and
	// Submit runs combineScan only when tagcnt[tag] != 0 — one L1 load on
	// the common no-duplicate submission. Entry 0 absorbs the pops of parked
	// slots (byte cleared, count released at park time) and is never read:
	// published tags are 1..255.
	tagcnt [256]int32
	// merged is the piggybacked-Get node arena; mfree heads its free list
	// (1+index encoding, 0 = empty).
	merged []rmerged
	mfree  int32
	// Gets counts completed lookups; Hits those that found their key.
	Gets, Hits uint64
	// Piggybacked counts Gets answered by an in-flight same-key probe
	// instead of issuing their own.
	Piggybacked uint64
	// Filter accumulates this reader's tag-filter events (handle-local so
	// concurrent readers never share counter cache lines).
	Filter FilterStats
	// rbhs holds per-partition bucket-engine handles (non-nil iff the
	// table's Layout is bucket): lookups resolve through them in one bucket
	// line, and their line/hop counters fold into Filter.KeyLines.
	rbhs []*slotarr.BucketHandle

	// Observability (nil/zero without a registry): the plain counters above
	// are published into obsw at Submit/Flush exit; trace samples 1-in-
	// traceEvery pipelined lookups through the lifecycle ring.
	obsw       *obs.Worker
	trace      *obs.TraceRing
	traceEvery int
	traceCnt   int
	pubCnt     int // Submit calls since the last throttled publish
	occMax     uint64
	// hot feeds the reader's hot-key sketch at Submit (nil unless armed);
	// opLat stamps each pending lookup so retire can record pipeline
	// residency into the per-op-class histograms.
	hot   *obs.TopK
	opLat bool

	// Byte-lookup pipeline (netbatch.go): in-flight byte-string Gets whose
	// home bucket lines were prefetched at SubmitGetBytes, completed in FIFO
	// order through onBGet. Nil until OnGetBytesComplete arms it.
	bq     []bGetPending
	bqhead int
	bqtail int
	onBGet func(id uint64, value []byte, found bool)

	// staged and bqstaged are the two rings' stage-two cursors on the bucket
	// layout (DESIGN.md §3.1.8); stageHook, set only by tests, sees every
	// stage-two prefetch.
	staged    int
	bqstaged  int
	stageHook func(hv uint64)

	// Governor plumbing (nil/zero on an ungoverned table): the handle polls
	// the shared decision word every govPollEvery Submits, feeds its counter
	// deltas as sensors, and actuates adopted decisions only while the
	// pipeline is empty. direct mirrors the decision's Direct bit: Submit
	// answers each lookup synchronously through getLocal instead of the
	// prefetch ring.
	gov        *governor.Governor
	govWord    uint64
	direct     bool
	govCnt     int
	govLastNS  int64
	govPrevOps uint64 // Gets at last poll
	govPrevPB  uint64 // Piggybacked at last poll
	govPrevSk  uint64 // Filter.TagSkips at last poll
	govPrevLn  uint64 // Filter.KeyLines+TagSkips at last poll
}

type rpending struct {
	key    uint64
	id     uint64
	part   uint64
	idx    uint64 // partition-local
	probes uint64
	rval   uint64 // resolved value of a parked leader (state != stateProbing)
	trace  uint64 // lifecycle trace id; 0 = not sampled
	start  int64  // submit stamp for op-latency recording; 0 = not armed
	chain  int32  // 1+index into merged of the newest piggybacked Get; 0 = none
	ngets  int32
	tag    uint8 // key's tag fingerprint (table.TagOf of the full hash)
	state  uint8
}

// NewReadHandle creates a reader pipeline. Under the default
// table.KernelSWAR kernel the handle probes whole cache lines branchlessly
// (the DRAMHiT-P-SIMD read path, §3.4).
func (t *Table) NewReadHandle() *ReadHandle {
	capacity := 1
	for capacity < t.cfg.PrefetchWindow+1 {
		capacity <<= 1
	}
	r := &ReadHandle{
		t:       t,
		q:       make([]rpending, capacity),
		mask:    capacity - 1,
		window:  t.cfg.PrefetchWindow,
		kernel:  t.kernel,
		filter:  t.filter,
		combine: t.combine == table.CombineOn,
	}
	if r.combine {
		r.rtags = make([]uint64, (capacity+7)/8)
	}
	if t.layout == table.LayoutBucket {
		r.rbhs = t.newPartHandles()
	}
	if t.obsReg != nil {
		n := t.nread.Add(1)
		r.obsw = t.obsReg.Worker("dramhitp-r" + strconv.Itoa(int(n)-1))
		r.trace = t.obsReg.Trace()
		r.traceEvery = t.obsReg.TraceSampleN()
		r.hot = r.obsw.Hot
		r.opLat = t.obsReg.OpLatencyEnabled()
	}
	if t.gov != nil {
		r.gov = t.gov
		r.govWord = t.gov.Word()
		r.applyDecision(governor.Unpack(r.govWord))
	}
	return r
}

// applyDecision actuates a governor decision on this reader. Callers must
// only invoke it while the pipeline is empty (head == tail): the tagcnt
// occupancy counts are balanced there, so toggling piggybacking cannot strand
// a parked chain, and the filter toggle is traversal-safe because PublishTag
// on the write path is unconditional. The decision is clamped to the table's
// constructed capabilities.
func (r *ReadHandle) applyDecision(d governor.Decision) {
	r.direct = d.Direct
	w := d.Window
	if w < 1 {
		w = 1
	}
	if w > r.t.cfg.PrefetchWindow {
		w = r.t.cfg.PrefetchWindow // ring capacity was sized for this
	}
	r.window = w
	r.combine = d.Combine && r.rtags != nil
	if d.Filter && r.t.filter == table.FilterTags {
		r.filter = table.FilterTags
	} else {
		r.filter = table.FilterNone
	}
}

// govPollEvery mirrors the core table's Submit-poll throttle: one time.Now
// plus one atomic load per govPollEvery Submit calls.
const govPollEvery = 64

// govPoll feeds the governor this reader's sensor deltas and adopts a
// changed decision at the empty-pipeline boundary.
func (r *ReadHandle) govPoll() {
	if r.govCnt++; r.govCnt < govPollEvery {
		return
	}
	r.govCnt = 0
	now := time.Now().UnixNano()
	if r.govLastNS != 0 {
		lines := r.Filter.KeyLines + r.Filter.TagSkips
		r.gov.Feed(governor.Sample{
			Ops:         r.Gets - r.govPrevOps,
			NS:          uint64(now - r.govLastNS),
			CombineHits: r.Piggybacked - r.govPrevPB,
			TagSkips:    r.Filter.TagSkips - r.govPrevSk,
			Lines:       lines - r.govPrevLn,
		})
		r.govPrevOps, r.govPrevPB = r.Gets, r.Piggybacked
		r.govPrevSk, r.govPrevLn = r.Filter.TagSkips, lines
	}
	r.govLastNS = now
	r.govApply()
}

// govApply adopts a changed decision word, but only while the pipeline is
// empty — the boundary where every actuation is proven safe.
func (r *ReadHandle) govApply() {
	if w := r.gov.Word(); w != r.govWord && r.head == r.tail {
		r.govWord = w
		r.applyDecision(governor.Unpack(w))
	}
}

// submitDirect is Submit's direct-mode body: each lookup is answered
// synchronously through the same no-atomics read path Get uses, skipping the
// ring, the prefetches and the out-of-order completion machinery. Responses
// come back in submission order; the per-ID responses are identical to the
// pipelined path's against the same table state.
func (r *ReadHandle) submitDirect(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	t := r.t
	for nreq < len(reqs) {
		if nresp >= len(resps) {
			return nreq, nresp
		}
		req := reqs[nreq]
		if r.hot != nil {
			r.hot.OfferSampled(req.Key)
		}
		var startNS int64
		if r.opLat {
			startNS = time.Now().UnixNano()
		}
		var traceID uint64
		if r.trace != nil {
			if r.traceCnt++; r.traceCnt >= r.traceEvery {
				r.traceCnt = 0
				traceID = r.trace.NextID()
				r.trace.Record(traceID, obs.EvSubmit, uint8(table.Get), req.Key, 0)
			}
		}
		var v uint64
		var ok bool
		if r.rbhs != nil {
			part, hv := t.locateBucket(req.Key)
			v, ok = r.getBucket(req.Key, part, hv)
		} else if s := t.side.For(req.Key); s != nil {
			v, ok = s.Get()
		} else {
			part, local, tag := t.locateTag(req.Key)
			v, ok = t.getLocal(&t.parts[part], local, req.Key, tag,
				r.filter == table.FilterTags, &r.Filter)
		}
		resps[nresp] = table.Response{ID: req.ID, Value: v, Found: ok}
		nresp++
		r.complete(ok)
		if startNS != 0 {
			r.obsw.Op[obs.OpClass(table.Get, ok)].Record(uint64(time.Now().UnixNano() - startNS))
		}
		if traceID != 0 {
			arg := uint32(0)
			if ok {
				arg = 1
			}
			r.trace.Record(traceID, obs.EvComplete, uint8(table.Get), req.Key, arg)
		}
		nreq++
	}
	return nreq, nresp
}

// obsPublishThrottled tracks the occupancy high-water on every Submit and
// forwards one call in obsPublishEvery to obsPublish — same rationale as
// the core table: per-batch publishing alone would blow the ≤2% observe-on
// budget on batch-16 streams. Flush still publishes unconditionally, so a
// drained pipeline always scrapes exact.
const obsPublishEvery = 64

func (r *ReadHandle) obsPublishThrottled() {
	if occ := uint64(r.head - r.tail); occ > r.occMax {
		r.occMax = occ
	}
	if r.pubCnt++; r.pubCnt >= obsPublishEvery {
		r.pubCnt = 0
		r.obsPublish()
	}
}

// obsPublish copies the reader's plain counters into its registry shard.
// Called at Flush exit and every obsPublishEvery-th Submit
// (batch-amortized, uncontended stores).
func (r *ReadHandle) obsPublish() {
	w := r.obsw
	w.Store(obs.CGets, r.Gets)
	w.Store(obs.CHits, r.Hits)
	w.Store(obs.CPiggybackedGets, r.Piggybacked)
	w.Store(obs.CKeyLines, r.Filter.KeyLines)
	w.Store(obs.CTagSkips, r.Filter.TagSkips)
	w.Store(obs.CTagHits, r.Filter.TagHits)
	w.Store(obs.CTagFalse, r.Filter.TagFalse)
	occ := uint64(r.head - r.tail)
	if occ > r.occMax {
		r.occMax = occ
	}
	w.SetGauge(obs.GWindowOcc, occ)
	w.SetGauge(obs.GWindowMax, r.occMax)
}

// getBucket resolves a uint64 lookup, located at (part, hv) by locateBucket,
// through its partition's engine, folding the engine's bucket-line loads and
// stash hops into this reader's KeyLines (every bucket visit consults key
// material — there is no sidecar to skip from, so the other filter counters
// stay zero).
func (r *ReadHandle) getBucket(key, part, hv uint64) (uint64, bool) {
	var kb [8]byte
	putLE(kb[:], key)
	bh := r.rbhs[part]
	pre := bh.Lines + bh.Hops
	vb, ok := bh.GetHashed(hv, kb[:])
	r.Filter.KeyLines += bh.Lines + bh.Hops - pre
	if !ok {
		return 0, false
	}
	return getLE(vb), true
}

// Get is the direct synchronous read path (two loads, no atomics beyond
// plain atomic loads), bypassing the pipeline.
func (r *ReadHandle) Get(key uint64) (uint64, bool) {
	t := r.t
	if r.rbhs != nil {
		part, hv := t.locateBucket(key)
		return r.getBucket(key, part, hv)
	}
	if s := t.side.For(key); s != nil {
		return s.Get()
	}
	part, local, tag := t.locateTag(key)
	return t.getLocal(&t.parts[part], local, key, tag,
		r.filter == table.FilterTags, &r.Filter)
}

// GetBytes looks up a byte-string key directly. The returned slice aliases
// the arena record: valid indefinitely, stale once the key is overwritten.
// Zero-allocation.
func (r *ReadHandle) GetBytes(key []byte) ([]byte, bool) {
	r.t.requireBucket()
	part, hv := r.t.locateBucketBytes(key)
	bh := r.rbhs[part]
	pre := bh.Lines + bh.Hops
	v, ok := bh.GetHashed(hv, key)
	r.Filter.KeyLines += bh.Lines + bh.Hops - pre
	r.complete(ok)
	return v, ok
}

// Submit pipelines lookup requests; completed responses are appended into
// resps exactly as in dramhit.Handle.Submit. With combining on, a request
// whose key already has a pending lookup in the window piggybacks on it
// (one probe, N responses) instead of enqueueing. Returns requests
// consumed and responses written.
func (r *ReadHandle) Submit(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	if r.obsw != nil {
		defer r.obsPublishThrottled()
	}
	if r.gov != nil {
		r.govPoll()
		if r.direct {
			return r.submitDirect(reqs, resps)
		}
	}
	t := r.t
	for nreq < len(reqs) {
		req := reqs[nreq]
		var part, local uint64
		var tag uint8
		hashed := false
		// In bucket mode reserved keys are ordinary engine keys, so they
		// combine like any other; local carries the engine's full hash (the
		// drain re-derives the bucket against the live, possibly resized
		// state).
		if r.combine && r.head != r.tail &&
			(r.rbhs != nil || t.side.For(req.Key) == nil) {
			if r.rbhs != nil {
				part, local = t.locateBucket(req.Key)
				tag = table.TagOf(local)
			} else {
				part, local, tag = t.locateTag(req.Key)
			}
			hashed = true
			// tagcnt gates the ring scan down to one L1 load when nothing in
			// flight shares the tag byte — the overwhelmingly common case
			// under low skew.
			if r.tagcnt[tag] != 0 {
				if pos := r.combineScan(req.Key, tag); pos >= 0 && r.tryCombine(req.ID, pos) {
					// The sketch feed sits on the combining sidecar path:
					// a piggybacked key is by definition in-window hot, so
					// it must reach the sketch even though no probe issues.
					if r.hot != nil {
						r.hot.OfferSampled(req.Key)
					}
					nreq++
					continue
				}
			}
		}
		for r.head-r.tail >= r.window {
			if blocked := r.processOldest(resps, &nresp); blocked {
				return nreq, nresp
			}
		}
		if !hashed {
			if r.rbhs != nil {
				part, local = t.locateBucket(req.Key)
				tag = table.TagOf(local)
			} else {
				part, local, tag = t.locateTag(req.Key)
			}
		}
		// Feed after the backpressure loop so a blocked-and-resubmitted
		// request is counted once.
		if r.hot != nil {
			r.hot.OfferSampled(req.Key)
		}
		// The lookup is built in the head slot and stays there until it
		// completes or reprobes. The slot is taken only now: the back-pressure
		// loop above may have re-pushed a reprobing lookup at the old head.
		// Every field is assigned, one store each — a composite literal would
		// be built on the stack and copied in.
		p := &r.q[r.head&r.mask]
		p.key, p.id, p.part, p.idx, p.tag = req.Key, req.ID, part, local, tag
		p.probes, p.rval, p.trace, p.start = 0, 0, 0, 0
		p.chain, p.ngets, p.state = 0, 0, stateProbing
		if r.opLat {
			p.start = time.Now().UnixNano()
		}
		if r.trace != nil {
			if r.traceCnt++; r.traceCnt >= r.traceEvery {
				r.traceCnt = 0
				p.trace = r.trace.NextID()
			}
		}
		if r.rbhs != nil {
			t.parts[part].bkt.Prefetch(local)
			r.push()
			r.stage(r.head - max(r.window/2, 1))
			nreq++
			continue
		}
		arr := t.parts[part].arr
		// Submit loads no table memory: it only starts the fetches the drain
		// will need — the home data line and, in tags mode, the sidecar word
		// the drain gates on.
		if r.filter == table.FilterTags {
			arr.PrefetchTags(local)
		}
		arr.Prefetch(local)
		r.push()
		nreq++
	}
	return nreq, nresp
}

// Flush drains the read pipeline.
func (r *ReadHandle) Flush(resps []table.Response) (nresp int, done bool) {
	if r.obsw != nil {
		defer r.obsPublish()
	}
	for r.head > r.tail {
		if blocked := r.processOldest(resps, &nresp); blocked {
			return nresp, false
		}
	}
	if r.gov != nil {
		// The pipeline is provably empty: adopt any pending decision so
		// submit/flush-batched callers actuate within one batch.
		r.govApply()
	}
	return nresp, true
}

// stage is stageGetBytes (netbatch.go) for the uint64 ring, whose idx carries
// the full hash. Bucket layout only, where the ring is strictly FIFO.
func (r *ReadHandle) stage(upto int) {
	for ; r.staged < upto; r.staged++ {
		m := &r.q[r.staged&r.mask]
		r.t.parts[m.part].bkt.PrefetchRecords(m.idx, slotarr.SpanBridge)
		if r.stageHook != nil {
			r.stageHook(m.idx)
		}
	}
}

// processOldest resolves the oldest pending lookup, in its ring slot, over
// its current line, reprobing with a fresh prefetch on line crossings. A
// parked leader (its probe already resolved, chain emission stalled on
// response space) is resumed before anything else; a chain that still does
// not fit has shrunk where it sits.
func (r *ReadHandle) processOldest(resps []table.Response, nresp *int) (blocked bool) {
	p := &r.q[r.tail&r.mask]
	if p.trace != 0 && p.state == stateProbing {
		r.trace.Record(p.trace, obs.EvProbe, uint8(table.Get), p.key, uint32(p.probes))
	}
	if p.state != stateProbing {
		if r.emitChain(p, p.rval, p.state == stateHit, resps, nresp) {
			r.pop()
			return false
		}
		return true
	}
	t := r.t
	// Bucket layout: the home bucket line was prefetched at Submit and the
	// probe resolves in-cell, so the drain is one synchronous engine lookup
	// with no reprobe loop (and no side slots — reserved keys are ordinary).
	if r.rbhs != nil {
		if *nresp >= len(resps) {
			return true
		}
		// Stage two's drain-side trigger: everything within half a window of
		// the tail, clamped to the head (Submit stages the rest).
		r.stage(min(r.tail+r.window/2+1, r.head))
		v, ok := r.getBucket(p.key, p.part, p.idx) // idx carries the full hash
		return r.retire(p, v, ok, resps, nresp)
	}
	if s := t.side.For(p.key); s != nil {
		if *nresp >= len(resps) {
			return true
		}
		v, ok := s.Get()
		return r.retire(p, v, ok, resps, nresp)
	}
	arr := t.parts[p.part].arr
	if r.kernel == table.KernelSWAR {
		return r.processOldestSWAR(resps, nresp, p, arr)
	}
	// The probe cursor walks in locals; reprobe stores it back once, before
	// the move, and a blocked return leaves the slot as it found it.
	idx, probes := p.idx, p.probes
	line := slotarr.LineOf(idx)
	for {
		if slotarr.LineOf(idx) != line || probes >= t.partSlots {
			if probes >= t.partSlots {
				if *nresp >= len(resps) {
					return true
				}
				return r.retire(p, 0, false, resps, nresp)
			}
			r.reprobe(p, arr, idx, probes)
			return false
		}
		switch k := arr.Key(idx); k {
		case p.key:
			if *nresp >= len(resps) {
				return true
			}
			return r.retire(p, arr.WaitValue(idx), true, resps, nresp)
		case table.EmptyKey:
			if *nresp >= len(resps) {
				return true
			}
			return r.retire(p, 0, false, resps, nresp)
		default:
			idx++
			if idx == t.partSlots {
				idx = 0
			}
			probes++
		}
	}
}

// reprobe sends the queue-head lookup p to the back of the queue behind a
// fresh prefetch of the line its drain advanced the probe cursor (idx,
// probes) to; the cursor is stored back here, once. In tags mode the data
// pull is elided when the tag word already rejects the line — the drain's
// gate will bounce it from the same cache-hot word. The move is the only
// copy an entry ever sees. Source and destination are distinct slots: the
// ring holds at least window+1 entries and at most window are pending, so
// the head slot is never the tail slot.
func (r *ReadHandle) reprobe(p *rpending, arr *slotarr.Array, idx, probes uint64) {
	p.idx, p.probes = idx, probes
	r.pop()
	if r.filter != table.FilterTags || arr.LineCandidates(idx, p.tag) != 0 {
		arr.Prefetch(idx)
	}
	r.q[r.head&r.mask] = *p
	r.push()
}

// processOldestSWAR resolves the oldest pending lookup with the branchless
// cache-line-wide probe of §3.4: one slotarr.LoadKeys4 snapshot of the
// prefetched line's key lanes (passed in registers — no lane array touches
// the stack), one lane-parallel compare covering all four key lanes at once.
// Like the dramhit drains, it opens with an entry-lane peek that resolves
// home-slot hits and home-slot misses-on-empty at exactly the scalar path's
// cost; the kernel engages only once a cluster walk has started. The matched
// lane's value is loaded after its key was observed (the key-then-value
// order every path uses), from the line the kernel just touched, so a hit
// costs no second memory touch; a miss reprobes into the next line. On a
// single-line partition the wrap stays resident and the kernel reruns from
// lane 0 without a reprobe.
// With FilterTags the entry peek is replaced by one load of the packed tag
// word: a rejected line is advanced past with the kernel's exact Miss
// accounting (so the traversal and out-of-order completion order match
// FilterNone bit for bit) and neither its key lanes nor — at reprobe time —
// its data line are touched. A zero (unpublished) tag keeps its lane in
// the candidate mask, so a write racing through the single-writer
// value→key→tag publication sequence can never be missed.
func (r *ReadHandle) processOldestSWAR(resps []table.Response, nresp *int, p *rpending, arr *slotarr.Array) (blocked bool) {
	t := r.t
	key, tag, idx, probes := p.key, p.tag, p.idx, p.probes
	tagged := r.filter == table.FilterTags
	if !tagged {
		r.Filter.KeyLines++
		switch k := arr.Key(idx); k {
		case key:
			if *nresp >= len(resps) {
				return true
			}
			return r.retire(p, arr.WaitValue(idx), true, resps, nresp)
		case table.EmptyKey:
			if *nresp >= len(resps) {
				return true
			}
			return r.retire(p, 0, false, resps, nresp)
		}
	}
	for {
		if tagged {
			base := idx &^ (table.SlotsPerCacheLine - 1)
			if arr.LineCandidates(base, tag)>>(idx-base) == 0 {
				r.Filter.TagSkips++
				valid := t.partSlots - base
				if valid > table.SlotsPerCacheLine {
					valid = table.SlotsPerCacheLine
				}
				probes += valid - (idx - base)
				if probes >= t.partSlots {
					if *nresp >= len(resps) {
						return true
					}
					return r.retire(p, 0, false, resps, nresp)
				}
				next := base + table.SlotsPerCacheLine
				if next >= t.partSlots {
					next = 0
				}
				idx = next
				if slotarr.LineOf(next) == slotarr.LineOf(base) {
					continue
				}
				r.reprobe(p, arr, idx, probes)
				return false
			}
			r.Filter.KeyLines++
		}
		l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
		lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(idx-base))
		switch res {
		case simd.HitKey:
			if *nresp >= len(resps) {
				return true
			}
			if tagged {
				r.Filter.TagHits++
			}
			return r.retire(p, arr.WaitValue(base+uint64(lane)), true, resps, nresp)
		case simd.HitEmpty:
			if *nresp >= len(resps) {
				return true
			}
			if tagged {
				r.Filter.TagHits++
			}
			return r.retire(p, 0, false, resps, nresp)
		}
		if tagged {
			r.Filter.TagFalse++
		}
		probes += valid - (idx - base)
		if probes >= t.partSlots {
			if *nresp >= len(resps) {
				return true
			}
			return r.retire(p, 0, false, resps, nresp)
		}
		next := base + table.SlotsPerCacheLine
		if next >= t.partSlots {
			next = 0
		}
		idx = next
		if slotarr.LineOf(next) == slotarr.LineOf(base) {
			if !tagged {
				r.Filter.KeyLines++
			}
			continue
		}
		r.reprobe(p, arr, idx, probes)
		return false
	}
}

func (r *ReadHandle) complete(hit bool) {
	r.Gets++
	if hit {
		r.Hits++
	}
}

// GetBatch performs positional batched lookups (see dramhit.Handle.GetBatch).
// Requests and responses are staged through fixed stack arrays, chunk by
// chunk with one flush after the last, so it allocates nothing.
func (r *ReadHandle) GetBatch(keys []uint64, vals []uint64, found []bool) {
	const chunk = 64
	var reqs [chunk]table.Request
	var resps [chunk]table.Response
	scatter := func(n int) {
		for _, resp := range resps[:n] {
			vals[resp.ID] = resp.Value
			found[resp.ID] = resp.Found
		}
	}
	for start := 0; start < len(keys); {
		n := 0
		for ; n < chunk && start < len(keys); n, start = n+1, start+1 {
			reqs[n] = table.Request{Op: table.Get, Key: keys[start], ID: uint64(start)}
		}
		for rem := reqs[:n]; len(rem) > 0; {
			nreq, nresp := r.Submit(rem, resps[:])
			scatter(nresp)
			rem = rem[nreq:]
		}
	}
	for {
		nresp, done := r.Flush(resps[:])
		scatter(nresp)
		if done {
			return
		}
	}
}

// hashOf is exposed for tests that need to co-locate keys in partitions.
func (t *Table) hashOf(key uint64) uint64 { return hashfn.Fastrange(t.hash(key), t.total) }
