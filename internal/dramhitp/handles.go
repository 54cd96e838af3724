package dramhitp

import (
	"strconv"

	"dramhit/internal/delegation"
	"dramhit/internal/dramhit"
	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// WriteHandle is a per-goroutine writer endpoint. Updates are delegated to
// partition owners and return no result. Duplicate-key Upserts fold into a
// small held window before delegation (combine.go); held deltas drain on
// Flush, Barrier, Close, window overflow, and same-key Put/Delete, so owners
// still see one linearizable per-key stream. Obtain with NewWriteHandle and
// Close when the goroutine is done writing.
type WriteHandle struct {
	t     *Table
	p     *delegation.Producer
	cn    int
	ckeys [coalesceWindow]uint64
	cvals [coalesceWindow]uint64
	// Combined counts Upserts folded into a held entry instead of sent.
	Combined uint64
	// sends counts delegation messages dispatched (plain field, published
	// into obsw at Flush/Barrier/Close boundaries). A writer publishes only
	// what delegation costs it: the updates themselves — their counters,
	// hot keys and op latencies — are the owners' handles', which apply them.
	sends uint64
	obsw  *obs.Worker
}

// NewWriteHandle allocates the next producer slot. It panics if more
// handles are requested than Config.Producers.
func (t *Table) NewWriteHandle() *WriteHandle {
	id := int(t.handleSeq.Add(1)) - 1
	if id >= t.cfg.Producers {
		panic("dramhitp: more WriteHandles requested than Config.Producers")
	}
	w := &WriteHandle{t: t, p: t.fabric.Producer(id)}
	if t.obsReg != nil {
		w.obsw = t.obsReg.Worker("dramhitp-w" + strconv.Itoa(id))
	}
	return w
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

// Put requests an insert/overwrite. It returns false if the destination
// partition is full (the update is dropped, fire-and-forget semantics). A
// held coalesced Upsert of the same key is released first so the owner
// applies the two in submission order.
func (w *WriteHandle) Put(key, value uint64) bool {
	if w.cn > 0 {
		w.flushKey(key)
	}
	return w.send(table.Put, key, value)
}

// Upsert requests an insert-or-add of delta. Duplicate keys fold locally
// (see holdUpsert) and a window of distinct keys rides one delegation flush;
// a reserved key is sent as it comes.
func (w *WriteHandle) Upsert(key, delta uint64) bool {
	if w.t.side.For(key) != nil {
		return w.send(table.Upsert, key, delta)
	}
	return w.holdUpsert(key, delta)
}

// Delete requests a tombstone, releasing any held same-key Upsert first so
// the owner applies the two in submission order.
func (w *WriteHandle) Delete(key uint64) {
	if w.cn > 0 {
		w.flushKey(key)
	}
	w.send(table.Delete, key, 0)
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
// the partition owners — applied and drained from their rings — which is the
// read-your-writes point. Held coalesced Upserts are released first so they
// are covered by the barrier.
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
// view, so lookups run dramhit's prefetch-window ring pointed at the
// partitions (reads are not delegated; any thread may
// read any partition, and a Get takes no atomic read-modify-write). The
// wrapper exists to keep that handle Get-only: a partition's only writer is
// its owner.
type ReadHandle struct {
	h *dramhit.Handle
}

// NewReadHandle creates a reader pipeline. The handle probes whole cache
// lines branchlessly (the DRAMHiT-P-SIMD read path, §3.4).
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
