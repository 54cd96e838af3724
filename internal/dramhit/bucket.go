package dramhit

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// This file is the bucket-layout back end of the handle: the byte-string API
// a LayoutBucket table serves (the SubmitBytes ring is in netbatch.go). A
// bucket probe is one index cache line resolved in-cell (the engine in
// internal/slotarr) plus the arena record its key is compared against.
// Reserved keys need no side slots here: every key is an ordinary byte
// string to the engine.

// foldBucketStats folds the engine handle's probe counters (taken as deltas
// against the pre-op snapshot) into the front-end Stats: engine bucket-line
// loads are KeyLines (every bucket visit consults key material), stash-node
// hops are Reprobes, and each hop also
// counts a Line so Lines/Ops keeps its "extra lines beyond the home line"
// reading. CAS-retry re-loads of the same bucket line surface in KeyLines
// only.
func (h *Handle) foldBucketStats(bh *slotarr.BucketHandle, preLines, preHops uint64) {
	dl := bh.Lines - preLines
	dh := bh.Hops - preHops
	h.stats.KeyLines += dl
	h.stats.Reprobes += dh
	h.stats.Lines += dh
}

// route hashes a byte-string key and returns its region's engine view with
// the hash, for the *Hashed entry points, and the op's latency stamp: it is
// the synchronous byte ops' one request site. Byte keys are ranked by hash
// in the hot-key sketch: the sketch stores uint64 identities, and the full
// hash is the stable one.
func (h *Handle) route(key []byte) (bh *slotarr.BucketHandle, hv uint64, startNS int64) {
	hv = h.regs[0].bkt.HashOf(key)
	if h.obsw != nil {
		startNS = h.sample(hv)
	}
	return h.bhs[hashfn.ShardRange(hv, h.nreg)], hv, startNS
}

// GetBytes returns the value stored for a byte-string key. The returned
// slice aliases the arena record: valid indefinitely, stale once the key
// is overwritten. Zero-allocation.
func (h *Handle) GetBytes(key []byte) ([]byte, bool) {
	h.requireLayout(table.LayoutBucket)
	bh, hv, start := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	v, ok := bh.GetHashed(hv, key)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.syncDone(table.Get, ok, start)
	return v, ok
}

// PutBytes stores value for a byte-string key, overwriting silently, and
// reports whether the key already existed. The index grows itself as needed;
// ok is false only when the arena has no room left for the record (its
// segment directory is full), and then the key keeps its old value and the
// Put counts in Stats.Failed.
func (h *Handle) PutBytes(key, value []byte) (existed, ok bool) {
	h.requireLayout(table.LayoutBucket)
	bh, hv, start := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	h.stats.CASAttempts++
	existed, ok = bh.PutHashed(hv, key, value)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.countWrite(table.Put, ok, start)
	return existed, ok
}

// UpsertBytes atomically read-modify-writes a byte-string key: fn receives
// the current value (nil, false when absent) and returns the value to
// store, or store false to leave the key as it is. Under contention fn may
// run multiple times; exactly the final invocation's decision takes effect,
// and its input is the record it replaced or kept. Reports whether the key
// already existed, and ok false when fn's value could not be stored (as for
// PutBytes).
func (h *Handle) UpsertBytes(key []byte, fn func(old []byte, present bool) (nv []byte, store bool)) (existed, ok bool) {
	h.requireLayout(table.LayoutBucket)
	bh, hv, start := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	h.stats.CASAttempts++
	existed, ok = bh.MutateHashed(hv, key, fn)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.countWrite(table.Upsert, ok, start)
	return existed, ok
}

// countWrite completes a synchronous byte Put or Upsert, and counts a refused
// one as Failed. A write counts as a hit in countOp's convention: its outcome
// is its own, whatever the key held.
func (h *Handle) countWrite(op table.Op, ok bool, startNS int64) {
	if !ok {
		h.stats.Failed++
	}
	h.syncDone(op, true, startNS)
}

// syncDone completes a synchronous byte op as the ring completes a request,
// then takes the throttled publish Submit uses, so that a registry sees
// synchronous ops as it sees the ring's.
func (h *Handle) syncDone(op table.Op, hit bool, startNS int64) {
	h.countOp(op, hit)
	if startNS != 0 {
		h.opLatency(op, hit, startNS)
	}
	if h.obsw != nil {
		h.obsPublishThrottled()
	}
}

// DeleteBytes removes a byte-string key, reporting whether it was present.
func (h *Handle) DeleteBytes(key []byte) bool {
	h.requireLayout(table.LayoutBucket)
	bh, hv, start := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	h.stats.CASAttempts++
	hit := bh.DeleteHashed(hv, key)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.syncDone(table.Delete, hit, start)
	return hit
}
