package dramhit

import (
	"time"

	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// This file is the bucket-layout back end of the handle: the pipeline's
// drain dispatch, the direct-mode twin, and the byte-string API the layout
// grows. A bucket probe is one index cache line resolved in-cell (the
// engine in internal/slotarr) plus the arena record its key is compared
// against, so the flat layout's reprobe/re-enqueue machinery collapses to a
// single synchronous completion per request — the prefetch window overlaps
// both misses, in two stages half a window apart, which is where the
// pipeline's win comes from.
//
// uint64 requests are bridged onto the byte engine by fixed 8-byte
// little-endian encodings of key and value. Reserved keys need no side
// slots here: they are ordinary byte strings to the engine.

// putLE stores v into b[0:8] little-endian.
func putLE(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// getLE loads a little-endian uint64 from b[0:8].
func getLE(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

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

// stage is stageBytes (netbatch.go) for the uint64 ring, whose idx carries the
// full hash. Bucket layout only, where the ring is strictly FIFO.
func (h *Handle) stage(upto int) {
	for ; h.staged < upto; h.staged++ {
		p := &h.q[h.staged&h.mask]
		h.regs[p.part].bkt.PrefetchRecords(p.idx, slotarr.SpanBridge)
		if h.stageHook != nil {
			h.stageHook(p.idx)
		}
	}
}

// processBucket resolves the queue-head request synchronously against the
// bucket engine. The home bucket line was prefetched at Submit and the
// candidate records half a window ago (stage two); by drain time both are
// resident, so the probe completes without re-entering the queue. retire
// handles combined-Get chains, parking and Failed exactly as on the flat
// path.
func (h *Handle) processBucket(p *pending, resps []table.Response, nresp *int) (wrote, blocked bool) {
	if p.req.Op == table.Get && *nresp >= len(resps) {
		return false, true
	}
	// Stage two's drain-side trigger: everything within half a window of the
	// tail, clamped to the head (Submit stages the rest, see stage).
	h.stage(min(h.tail+h.window/2+1, h.head))
	var kb [8]byte
	putLE(kb[:], p.req.Key)
	hv := p.idx // the full hash; the engine derives the bucket from it
	bh := h.bhs[p.part]
	preL, preH := bh.Lines, bh.Hops
	switch p.req.Op {
	case table.Get:
		var v uint64
		vb, ok := bh.GetHashed(hv, kb[:])
		if ok {
			v = getLE(vb)
		}
		h.foldBucketStats(bh, preL, preH)
		return h.retire(p, table.Get, v, ok, false, resps, nresp)
	case table.Put:
		var vb [8]byte
		putLE(vb[:], p.req.Value)
		h.stats.CASAttempts++
		bh.PutHashed(hv, kb[:], vb[:])
		h.foldBucketStats(bh, preL, preH)
		return h.retire(p, table.Put, p.req.Value, true, false, resps, nresp)
	case table.Upsert:
		// The engine's Mutate publishes exactly the final invocation's
		// result, computed from the record it replaced — the linearizable
		// add. res carries it out for retire (and any forwarded Gets).
		var vb [8]byte
		var res uint64
		h.stats.CASAttempts++
		bh.MutateHashed(hv, kb[:], func(old []byte, present bool) []byte {
			res = p.req.Value
			if present {
				res += getLE(old)
			}
			putLE(vb[:], res)
			return vb[:]
		})
		h.foldBucketStats(bh, preL, preH)
		return h.retire(p, table.Upsert, res, true, false, resps, nresp)
	default: // Delete — never a combine leader, so no retire machinery
		h.pop()
		h.stats.CASAttempts++
		hit := bh.DeleteHashed(hv, kb[:])
		h.foldBucketStats(bh, preL, preH)
		h.finish(p, table.Delete, hit)
		return true, false
	}
}

// submitDirectBucket is submitDirect's bucket-layout body: the governor's
// degraded direct mode executes each request as one synchronous engine
// call, submission-ordered, with the same observe/latency plumbing as the
// flat direct path.
func (h *Handle) submitDirectBucket(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	obsOn := h.trace != nil || h.onComplete != nil || h.opLat
	for nreq < len(reqs) {
		req := reqs[nreq]
		if req.Op == table.Get && nresp >= len(resps) {
			return nreq, nresp
		}
		if h.hot != nil {
			h.hot.OfferSampled(req.Key)
		}
		var traceID uint64
		var startNS int64
		if obsOn {
			if h.onComplete != nil || h.opLat {
				startNS = time.Now().UnixNano()
			}
			if h.trace != nil {
				if h.traceCnt++; h.traceCnt >= h.traceEvery {
					h.traceCnt = 0
					traceID = h.trace.NextID()
					h.trace.Record(traceID, obs.EvSubmit, uint8(req.Op), req.Key, 0)
				}
			}
		}
		h.stats.Lines++
		var kb, vb [8]byte
		putLE(kb[:], req.Key)
		bh, hv := h.route(kb[:])
		preL, preH := bh.Lines, bh.Hops
		var v uint64
		var found bool
		switch req.Op {
		case table.Get:
			if b, ok := bh.GetHashed(hv, kb[:]); ok {
				v, found = getLE(b), true
			}
		case table.Put:
			putLE(vb[:], req.Value)
			h.stats.CASAttempts++
			bh.PutHashed(hv, kb[:], vb[:])
			v, found = req.Value, true
		case table.Upsert:
			h.stats.CASAttempts++
			bh.MutateHashed(hv, kb[:], func(old []byte, present bool) []byte {
				v = req.Value
				if present {
					v += getLE(old)
				}
				putLE(vb[:], v)
				return vb[:]
			})
			found = true
		default: // Delete
			h.stats.CASAttempts++
			found = bh.DeleteHashed(hv, kb[:])
		}
		h.foldBucketStats(bh, preL, preH)
		if req.Op == table.Get {
			resps[nresp] = table.Response{ID: req.ID, Value: v, Found: found}
			nresp++
		}
		if obsOn {
			h.finishReq(&reqs[nreq], startNS, traceID, req.Op, found)
		} else {
			h.countOp(req.Op, found)
		}
		nreq++
	}
	return nreq, nresp
}

// requireBucket panics unless the handle's table is LayoutBucket. The byte
// API is a capability of the bucket layout (variable-length keys and values
// live in the arena); on a flat table there is nowhere to store them.
func (h *Handle) requireBucket() {
	if h.bhs == nil {
		panic("dramhit: byte-string API requires Config.Layout == table.LayoutBucket")
	}
}

// GetBytes returns the value stored for a byte-string key. The returned
// slice aliases the arena record: valid indefinitely, stale once the key
// is overwritten. Zero-allocation. Byte operations are synchronous and do
// not order against uint64 requests still in the pipeline — Flush first
// when mixing the two APIs on keys that may alias (a uint64 key k is the
// byte key of its 8-byte little-endian encoding).
func (h *Handle) GetBytes(key []byte) ([]byte, bool) {
	h.requireBucket()
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
	h.requireBucket()
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
	h.requireBucket()
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
	h.requireBucket()
	bh, hv := h.route(key)
	preL, preH := bh.Lines, bh.Hops
	h.stats.CASAttempts++
	hit := bh.DeleteHashed(hv, key)
	h.stats.Lines++
	h.foldBucketStats(bh, preL, preH)
	h.countOp(table.Delete, hit)
	return hit
}
