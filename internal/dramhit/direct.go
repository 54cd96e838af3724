package dramhit

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/obs"
	"dramhit/internal/simd"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// This file is direct mode, the execution for a cache-resident table, where
// there is no miss for a prefetch window to hide: Submit bypasses the
// prefetch ring and executes each request as one synchronous inline probe —
// the folklore execution model, but keeping this table's line-granular SWAR
// kernel. New runs it for a flat table whose slot array is at most
// directMaxBytes (runsDirect), and Config.Governor = table.GovernorDirect
// forces it at any size. Responses are produced in
// submission order; the mode is fixed when the handle is made, Submit
// selects it with one branch on a handle flag, and the op path allocates
// nothing.
//
// Equivalence: a direct probe walks the same slot sequence as the pipelined
// drains (same hash, same entry offset, same line-advance accounting, same
// claim/delete CASes re-verifying every snapshot), so the two modes produce
// identical per-request responses against identical table states; only
// completion ORDER differs (direct is submission-ordered — strictly
// stronger than the pipeline's out-of-order guarantee). The direct≡pipelined
// property tests pin per-ID response equality and final-state equality.

// directMaxBytes is the largest flat slot array, in bytes, that New runs in
// direct mode when the config leaves the execution to the table: 4 MiB, 2^18
// slots. It is read off BenchmarkExecutionBySize (EXPERIMENTS.md, "Execution
// by index size"): on a host with a 2 MiB L2, direct mode wins every mix up
// to 2 MiB and ties at 4 MiB, and the ring starts to win at 16 MiB. The
// bound is a byte count, the same on every host, not a multiple of the
// host's L2: the sweep ran on one L2 size. This package's tests set it to
// pin the execution they test.
var directMaxBytes uint64 = 4 << 20

// slotBytes is the size of one flat slot: a key word and a value word.
const slotBytes = table.CacheLineBytes / table.SlotsPerCacheLine

// runsDirect reports whether New runs a flat table of slots slots in direct
// mode when its config leaves the mode to the table.
func runsDirect(slots uint64) bool { return slots*slotBytes <= directMaxBytes }

// submitDirect is Submit's direct-mode body. The contract is unchanged:
// nreq < len(reqs) only when resps ran out of space for a Get's response.
// On an unobserved handle (the common case) the loop never builds a
// pending — completion is countOp, a counter switch — so the synchronous
// path carries none of the ring machinery's per-request weight.
func (h *Handle) submitDirect(reqs []table.Request, resps []table.Response) (nreq, nresp int) {
	obsOn := h.obsw != nil
	for nreq < len(reqs) {
		req := reqs[nreq]
		if req.Op == table.Get && nresp >= len(resps) {
			return nreq, nresp
		}
		var traceID uint64
		var startNS int64
		if obsOn {
			if startNS, traceID = h.sampleTraced(req.Key); traceID != 0 {
				h.trace.Record(traceID, obs.EvSubmit, uint8(req.Op), req.Key, 0)
			}
		}
		// Lines advances per request before the side check, matching the
		// pipelined Submit (which prefetches — touches — the home line even
		// for side-resolved reserved keys), so direct and pipelined stats stay
		// comparable term for term.
		h.stats.Lines++
		if s := h.t.side.For(req.Key); s != nil {
			h.completeSide(s, &reqs[nreq], startNS, traceID, resps, &nresp)
			nreq++
			continue
		}
		part, idx := hashfn.FastrangeSplit(hashfn.City64(req.Key), h.nreg, h.rslots)
		v, found, fail := h.directSWAR(req, uint32(part), idx)
		if req.Op == table.Get {
			resps[nresp] = table.Response{ID: req.ID, Value: v, Found: found}
			nresp++
		}
		if fail {
			h.stats.Failed++
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

// Get answers one lookup synchronously through the direct-mode probe — no
// ring, no prefetch, whatever mode the handle's Submit runs in — and counts
// it like any other completed Get. It does not order against requests still
// in the pipeline.
func (h *Handle) Get(key uint64) (uint64, bool) {
	h.requireLayout(table.LayoutFlat)
	reqs := [1]table.Request{{Op: table.Get, Key: key}}
	var resps [1]table.Response
	h.submitDirect(reqs[:], resps[:])
	return resps[0].Value, resps[0].Found
}

// directExhausted maps a full-table probe to its completion: Get/Delete
// report a miss, Put/Upsert report table-full.
func directExhausted(op table.Op) (uint64, bool, bool) {
	if op == table.Put || op == table.Upsert {
		return 0, false, true
	}
	return 0, false, false
}

// directSWAR is the inline line-granular probe: the synchronous twin of the
// drain* loops in swar.go, with identical per-line accounting (KeyLines,
// Reprobes, Lines, CASAttempts advance exactly as a pipelined probe's would
// over the same traversal) but no queue to re-enter — a line crossing just
// keeps walking, and opens the next line the way a drain opens a reprobed
// request: with the entry-lane peek.
func (h *Handle) directSWAR(req table.Request, part uint32, idx uint64) (uint64, bool, bool) {
	arr, size := h.regs[part].arr, h.rslots
	var probes uint64
	for {
		// Entry-lane peek, as in the drains: at working fills most probes
		// resolve in their home slot, and one scalar load answers that case
		// without the lane kernel's emulated-SWAR ALU. Counters advance
		// exactly as the drain's would for the same resolution — including the
		// Delete peek's CASAttempts-free shape — so direct stats stay
		// bit-identical to the window-1 pipeline's (the sequential equivalence
		// test compares them term for term).
		h.stats.KeyLines++
		switch k := arr.Key(idx); k {
		case req.Key:
			switch req.Op {
			case table.Get:
				return arr.WaitValue(idx), true, false
			case table.Put:
				h.stats.CASAttempts++
				arr.StoreValue(idx, req.Value)
				return req.Value, true, false
			case table.Upsert:
				h.stats.CASAttempts++
				return arr.AddValue(idx, req.Value), true, false
			default: // Delete
				return 0, h.tombstone(part, arr, idx, req.Key), false
			}
		case table.EmptyKey:
			if req.Op == table.Get || req.Op == table.Delete {
				return 0, false, false
			}
			if h.claim(part, arr, idx, req.Key, req.Value) {
				return req.Value, true, false
			}
			// Claim race lost: fall into the kernel loop, which re-snapshots.
		}
		for crossed := false; !crossed; {
			l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
			lane, res := simd.ProbeLine4(l0, l1, l2, l3, req.Key, table.EmptyKey, int(idx-base))
			switch res {
			case simd.HitKey:
				slot := base + uint64(lane)
				switch req.Op {
				case table.Get:
					return arr.WaitValue(slot), true, false
				case table.Put:
					h.stats.CASAttempts++
					arr.StoreValue(slot, req.Value)
					return req.Value, true, false
				case table.Upsert:
					h.stats.CASAttempts++
					return arr.AddValue(slot, req.Value), true, false
				default: // Delete
					// A concurrent Delete may win the race: a miss, exactly
					// like the pipelined drain.
					h.stats.CASAttempts++
					return 0, h.tombstone(part, arr, slot, req.Key), false
				}
			case simd.HitEmpty:
				if req.Op == table.Get || req.Op == table.Delete {
					return 0, false, false
				}
				if h.claim(part, arr, base+uint64(lane), req.Key, req.Value) {
					return req.Value, true, false
				}
				// Claim race lost: re-snapshot the same line and rerun the
				// kernel.
				continue
			}
			if probes+valid-(idx-base) >= size {
				return directExhausted(req.Op)
			}
			probes += valid - (idx - base)
			next := base + table.SlotsPerCacheLine
			if next >= size {
				next = 0
			}
			idx = next
			if crossed = slotarr.LineOf(next) != slotarr.LineOf(base); crossed {
				// Where the pipeline would reprobe.
				h.stats.Reprobes++
				h.stats.Lines++
			} else {
				// Single-line-table wrap, counted as the drains count it.
				h.stats.KeyLines++
			}
		}
	}
}
