package dramhit

import (
	"dramhit/internal/simd"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// This file is the table.KernelSWAR execution model: the drain probes whole
// cache lines, not slots. Each drain snapshots the resident line's key lanes
// with one slotarr.LoadKeys pass, runs the lane-parallel branch-free kernel
// of internal/simd over the four key lanes, and acts on the first match in
// probe order. Tombstoned lanes match neither mask and are skipped without a
// branch. At most one value word is touched afterwards (the matched lane's —
// an L1 hit, the line is resident). Every state-changing decision made from
// the snapshot is re-verified against live memory by the claim CAS; a lost
// claim race re-snapshots the line and reruns the kernel rather than falling
// back to the scalar loop (see DESIGN.md "Line-granular SWAR probe kernel").
//
// The drains are specialized per operation so the op switch runs once per
// drain attempt in processOldest, not once per probed slot.

// Each line a drain opens — the visit's first, and the second it walks into
// in place (walkOn) — starts with an entry-lane peek: at the fills the tables
// run at, most probes resolve in their home slot, and one load answers that
// case at exactly the scalar path's cost. Only when the peeked lane holds a
// different live key (a cluster walk has started) does the line kernel take
// over, replacing up to three more per-slot iterations with one fused
// lane-compare. The peek and the kernel share the line's one KeyLines count,
// so the counters stay identical to the scalar path's in every outcome, and
// the same shape in direct mode keeps the two modes identical term for term.

// drainGet resolves a pending Get over its resident line pair with the lane
// kernel. The matched lane's value is loaded after its key was observed —
// the same key-then-value order the scalar path uses — from the line the
// kernel just touched, so the load is an L1 hit, not a second memory touch.
func (h *Handle) drainGet(p *pending, resps []table.Response, nresp *int) {
	arr, size := h.regs[p.part].arr, h.rslots
	key, idx, probes := p.req.Key, p.idx, p.probes
	for walked := false; ; walked = true {
		h.stats.KeyLines++
		switch arr.Key(idx) {
		case key:
			h.retire(p, table.Get, arr.WaitValue(idx), true, false, resps, nresp)
			return
		case table.EmptyKey:
			h.retire(p, table.Get, 0, false, false, resps, nresp)
			return
		}
		for {
			l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
			lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(idx-base))
			switch res {
			case simd.HitKey:
				h.retire(p, table.Get, arr.WaitValue(base+uint64(lane)), true, false, resps, nresp)
				return
			case simd.HitEmpty:
				h.retire(p, table.Get, 0, false, false, resps, nresp)
				return
			}
			if probes+valid-(idx-base) >= size {
				// Full-table probe: not found.
				h.completeFailed(p, resps, nresp)
				return
			}
			// Missed line: advance past it. Lanes before the entry offset were
			// examined on an earlier pass (or never); only cidx..valid-1 count
			// toward the full-table bound, exactly matching the scalar loop's
			// per-slot accounting. The cursor lives in the locals idx and probes
			// (p is the ring slot itself, so p.idx would be a store per line);
			// reprobe stores it back once, before the move.
			probes += valid - (idx - base)
			idx = nextLine(base, size)
			if slotarr.LineOf(idx) != slotarr.LineOf(base) {
				if !h.walkOn(p, idx, probes, walked) {
					return
				}
				break
			}
			// Single-line-table wrap: the probe stays cache-resident; keep
			// draining, counting the new visit of the same line.
			h.stats.KeyLines++
		}
	}
}

// nextLine returns the first slot of the line after the one at base, wrapping
// to slot 0 at the end of a region of size slots.
func nextLine(base, size uint64) uint64 {
	if next := base + table.SlotsPerCacheLine; next < size {
		return next
	}
	return 0
}

// drainUpdate resolves a pending Put or Upsert. An empty lane located in the
// snapshot is claimed with the key-word CAS; a lost race re-snapshots the
// line and reruns the kernel — the monotonic key transitions (empty → key →
// tombstone, never reused) guarantee the rerun observes the interfering
// claim and either matches it (same key) or probes past it.
func (h *Handle) drainUpdate(p *pending, resps []table.Response, nresp *int) {
	arr, size := h.regs[p.part].arr, h.rslots
	op, key, idx, probes := p.req.Op, p.req.Key, p.idx, p.probes
	for walked := false; ; walked = true {
		h.stats.KeyLines++
		switch arr.Key(idx) {
		case key:
			h.stats.CASAttempts++
			v := p.req.Value
			if op == table.Upsert {
				v = arr.AddValue(idx, v)
			} else {
				arr.StoreValue(idx, v)
			}
			h.retire(p, op, v, true, false, resps, nresp)
			return
		case table.EmptyKey:
			if h.claim(arr, idx, key, p.req.Value) {
				h.retire(p, op, p.req.Value, true, false, resps, nresp)
				return
			}
			// Claim race lost: fall into the kernel loop, which re-snapshots.
		}
		for {
			l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
			lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(idx-base))
			slot := base + uint64(lane)
			switch res {
			case simd.HitKey:
				h.stats.CASAttempts++
				v := p.req.Value
				if op == table.Upsert {
					v = arr.AddValue(slot, v)
				} else {
					arr.StoreValue(slot, v)
				}
				h.retire(p, op, v, true, false, resps, nresp)
				return
			case simd.HitEmpty:
				if h.claim(arr, slot, key, p.req.Value) {
					h.retire(p, op, p.req.Value, true, false, resps, nresp)
					return
				}
				// Claim race lost: the lane now holds some key. Re-snapshot and
				// rerun the kernel over the same line.
				continue
			}
			if probes+valid-(idx-base) >= size {
				// Full-table probe: the table is full.
				h.completeFailed(p, resps, nresp)
				return
			}
			// Missed line: advance the local cursor past it, as in drainGet.
			probes += valid - (idx - base)
			idx = nextLine(base, size)
			if slotarr.LineOf(idx) != slotarr.LineOf(base) {
				if !h.walkOn(p, idx, probes, walked) {
					return
				}
				break
			}
			// Single-line-table wrap, as in drainGet.
			h.stats.KeyLines++
		}
	}
}

// drainDelete resolves a pending Delete: a matched lane is tombstoned with a
// CAS that re-verifies the snapshot (a concurrent Delete of the same key may
// have won, in which case this one reports a miss, exactly like the scalar
// path).
func (h *Handle) drainDelete(p *pending) {
	arr, size := h.regs[p.part].arr, h.rslots
	key, idx, probes := p.req.Key, p.idx, p.probes
	for walked := false; ; walked = true {
		h.stats.KeyLines++
		switch arr.Key(idx) {
		case key:
			h.retire(p, table.Delete, 0, h.tombstone(arr, idx, key), false, nil, nil)
			return
		case table.EmptyKey:
			h.retire(p, table.Delete, 0, false, false, nil, nil)
			return
		}
		for {
			l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
			lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(idx-base))
			switch res {
			case simd.HitKey:
				h.stats.CASAttempts++
				h.retire(p, table.Delete, 0, h.tombstone(arr, base+uint64(lane), key), false, nil, nil)
				return
			case simd.HitEmpty:
				h.retire(p, table.Delete, 0, false, false, nil, nil)
				return
			}
			if probes+valid-(idx-base) >= size {
				h.retire(p, table.Delete, 0, false, false, nil, nil)
				return
			}
			// Missed line: advance the local cursor past it, as in drainGet.
			probes += valid - (idx - base)
			idx = nextLine(base, size)
			if slotarr.LineOf(idx) != slotarr.LineOf(base) {
				if !h.walkOn(p, idx, probes, walked) {
					return
				}
				break
			}
			// Single-line-table wrap, as in drainGet.
			h.stats.KeyLines++
		}
	}
}
