package dramhitp

import (
	"strconv"
	"time"

	"dramhit/internal/delegation"
	"dramhit/internal/dramhit"
	"dramhit/internal/obs"
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
	// iff the table is a bucket table). The byte-string operations execute
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
		w.wbhs = make([]*slotarr.BucketHandle, len(t.parts))
		for i := range t.parts {
			w.wbhs[i] = t.parts[i].bkt.NewHandle()
		}
	}
	if t.obsReg != nil {
		w.obsw = t.obsReg.Worker("dramhitp-w" + strconv.Itoa(id))
		w.hot = w.obsw.Hot
		w.opLat = t.obsReg.OpLatencyEnabled()
	}
	return w
}

// wrongAPI is requireLayout's panic message, by the layout the called API
// needs.
var wrongAPI = [...]string{
	table.LayoutFlat:   "dramhitp: the uint64 API needs a LayoutFlat table; a LayoutBucket table serves the byte API (WriteHandle.PutBytes/UpsertBytes/DeleteBytes, ReadHandle.GetBytes and the byte-lookup ring)",
	table.LayoutBucket: "dramhitp: the byte-string API needs a LayoutBucket table (variable-length records live in its arena); a LayoutFlat table serves the uint64 API",
}

// requireLayout panics unless the table has layout want: a flat table serves
// the uint64 API, a bucket table the byte API.
func (t *Table) requireLayout(want table.Layout) {
	if t.layout != want {
		panic(wrongAPI[want])
	}
}

// PutBytes stores value for a byte-string key, overwriting silently,
// reporting whether the key existed. Synchronous (direct to the partition
// engine, not delegated).
func (w *WriteHandle) PutBytes(key, value []byte) (existed bool) {
	w.t.requireLayout(table.LayoutBucket)
	part, hv := w.t.locateBytes(key)
	return w.wbhs[part].PutHashed(hv, key, value)
}

// UpsertBytes atomically read-modify-writes a byte-string key: fn receives
// the current value (nil, false when absent) and returns the value to
// store; under contention fn may run multiple times and exactly the final
// invocation's result is published. Synchronous, like PutBytes.
func (w *WriteHandle) UpsertBytes(key []byte, fn func(old []byte, present bool) []byte) (existed bool) {
	w.t.requireLayout(table.LayoutBucket)
	part, hv := w.t.locateBytes(key)
	return w.wbhs[part].MutateHashed(hv, key, fn)
}

// DeleteBytes removes a byte-string key, reporting whether it was present.
// Synchronous, like PutBytes.
func (w *WriteHandle) DeleteBytes(key []byte) bool {
	w.t.requireLayout(table.LayoutBucket)
	part, hv := w.t.locateBytes(key)
	return w.wbhs[part].DeleteHashed(hv, key)
}

// publish copies the writer's plain counters into its registry shard and
// refreshes the delegation-backlog gauge. Called at Flush/Barrier/Close.
func (w *WriteHandle) publish() {
	w.obsw.Store(obs.CQueueSends, w.sends)
	w.obsw.Store(obs.CCombinedUpserts, w.Combined)
	w.obsw.SetGauge(obs.GQueueDepth, uint64(w.p.Pending()))
}

// send routes an update to the owner of the key's partition, checking the
// partition-full flag first (a shared-state L1 hit in steady state, paper
// §3.2). It reports false if the update was denied.
func (w *WriteHandle) send(op table.Op, key, value uint64) bool {
	t := w.t
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
	w.t.requireLayout(table.LayoutFlat)
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
	w.t.requireLayout(table.LayoutFlat)
	if w.hot != nil {
		w.hot.OfferSampled(key)
	}
	start := w.opStart()
	var ok bool
	if !w.coalesce || w.t.side.For(key) != nil {
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
	w.t.requireLayout(table.LayoutFlat)
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
		w.publish()
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
		w.publish()
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
		w.publish()
	}
}

// ReadHandle is a per-goroutine reader: one dramhit.Handle of the table's read
// view, so lookups run dramhit's prefetch-window pipeline — ring, direct
// mode, byte ring — pointed at the partitions (reads are not
// delegated; any thread may read any partition, and a Get takes no atomic
// read-modify-write). The wrapper exists to keep that handle Get-only: its
// update drains CAS, which a single-writer partition does not admit.
type ReadHandle struct {
	h *dramhit.Handle
}

// NewReadHandle creates a reader pipeline. Under the default
// table.KernelSWAR kernel the handle probes whole cache lines branchlessly
// (the DRAMHiT-P-SIMD read path, §3.4).
func (t *Table) NewReadHandle() *ReadHandle {
	return &ReadHandle{h: t.view.NewHandle()}
}

// Stats returns a copy of the reader's counters: completed Gets and Hits and
// the line counts (handle-local, so concurrent readers never share counter
// cache lines).
func (r *ReadHandle) Stats() dramhit.Stats { return r.h.Stats() }

// Submit pipelines lookup requests; completed responses are appended into
// resps exactly as in dramhit.Handle.Submit. Returns requests consumed and
// responses written. Only Gets are accepted.
func (r *ReadHandle) Submit(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	for i := range reqs {
		if reqs[i].Op != table.Get {
			panic("dramhitp: ReadHandle.Submit accepts only Get; updates go through a WriteHandle")
		}
	}
	return r.h.Submit(reqs, resps)
}

// Flush drains the read pipeline.
func (r *ReadHandle) Flush(resps []table.Response) (nresp int, done bool) {
	return r.h.Flush(resps)
}

// Get is the direct synchronous read path (two loads, no atomics beyond
// plain atomic loads), bypassing the pipeline.
func (r *ReadHandle) Get(key uint64) (uint64, bool) { return r.h.Get(key) }

// GetBatch performs positional batched lookups (see dramhit.Handle.GetBatch),
// allocating nothing.
func (r *ReadHandle) GetBatch(keys []uint64, vals []uint64, found []bool) {
	r.h.GetBatch(keys, vals, found)
}

// GetBytes looks up a byte-string key directly. The returned slice aliases
// the arena record: valid indefinitely, stale once the key is overwritten.
// Zero-allocation. Bucket layout only.
func (r *ReadHandle) GetBytes(key []byte) ([]byte, bool) { return r.h.GetBytes(key) }

// The byte-lookup pipeline is dramhit's byte ring restricted to Gets: prefetch
// the home bucket line of the key's partition at submit, the candidate records
// half a window later, resolve synchronously at drain. Completions fire in
// submission order, which is what lets a protocol server write replies
// straight into a connection buffer from the callback. Writes stay on the
// WriteHandle's synchronous byte API (PutBytes and friends): variable-length
// records do not fit delegation messages.

// OnGetBytesComplete arms the byte-lookup pipeline with its completion
// callback. Must be called before SubmitGetBytes and only while no byte
// lookups are in flight. Bucket layout only. value aliases the arena record —
// consume it inside the callback or copy.
func (r *ReadHandle) OnGetBytesComplete(fn func(id uint64, value []byte, found bool)) {
	r.h.OnByteComplete(func(c dramhit.ByteCompletion) { fn(c.ID, c.Value, c.Found) })
}

// PendingGetBytes returns the number of in-flight byte lookups.
func (r *ReadHandle) PendingGetBytes() int { return r.h.PendingBytes() }

// SubmitGetBytes enqueues one byte-string lookup, draining the oldest first if
// the window is full. Drained completions fire before SubmitGetBytes returns,
// in submission order. The caller owns key until its completion fires. Byte
// lookups order only against other byte lookups on this handle.
func (r *ReadHandle) SubmitGetBytes(id uint64, key []byte) {
	r.h.SubmitBytes(table.Get, id, key, nil)
}

// FlushGetBytes drains every in-flight byte lookup, firing the completion
// callback for each in submission order.
func (r *ReadHandle) FlushGetBytes() { r.h.FlushBytes() }
