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
// loads are KeyLines (every bucket visit consults key material — there is
// no sidecar to skip from), stash-node hops are Reprobes, and each hop also
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
// the hash, for the *Hashed entry points.
func (h *Handle) route(key []byte) (*slotarr.BucketHandle, uint64) {
	hv := h.regs[0].bkt.HashOf(key)
	return h.bhs[hashfn.ShardRange(hv, h.nreg)], hv
}

// GetBytes returns the value stored for a byte-string key. The returned
// slice aliases the arena record: valid indefinitely, stale once the key
// is overwritten. Zero-allocation.
func (h *Handle) GetBytes(key []byte) ([]byte, bool) {
	h.requireLayout(table.LayoutBucket)
	bh, hv := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	v, ok := bh.GetHashed(hv, key)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.countOp(table.Get, ok)
	return v, ok
}

// PutBytes stores value for a byte-string key, overwriting silently, and
// reports whether the key already existed. The table grows itself as
// needed — a byte Put never fails.
func (h *Handle) PutBytes(key, value []byte) (existed bool) {
	h.requireLayout(table.LayoutBucket)
	bh, hv := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	h.stats.CASAttempts++
	existed = bh.PutHashed(hv, key, value)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.countOp(table.Put, true)
	return existed
}

// UpsertBytes atomically read-modify-writes a byte-string key: fn receives
// the current value (nil, false when absent) and returns the value to
// store. Under contention fn may run multiple times; exactly the final
// invocation's result is published, and its input is the record it
// replaced. Reports whether the key already existed.
func (h *Handle) UpsertBytes(key []byte, fn func(old []byte, present bool) []byte) (existed bool) {
	h.requireLayout(table.LayoutBucket)
	bh, hv := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	h.stats.CASAttempts++
	existed = bh.MutateHashed(hv, key, fn)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.countOp(table.Upsert, true)
	return existed
}

// DeleteBytes removes a byte-string key, reporting whether it was present.
func (h *Handle) DeleteBytes(key []byte) bool {
	h.requireLayout(table.LayoutBucket)
	bh, hv := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	h.stats.CASAttempts++
	hit := bh.DeleteHashed(hv, key)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.countOp(table.Delete, hit)
	return hit
}
