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
// The drains are specialized per operation so the 4-way op switch runs once
// per drain attempt in processOldest, not once per probed slot.

// Each drain opens with an entry-lane peek: at the fills the tables run at,
// most probes resolve in their home slot, and one load answers that case at
// exactly the scalar path's cost. Only when the peeked lane holds a
// different live key (a cluster walk has started) does the line kernel take
// over, replacing up to three more per-slot iterations with one fused
// lane-compare. The peek and the kernel share the line's one KeyLines count,
// so the counters stay identical to the scalar path's in every outcome.

// drainGet resolves a pending Get over its resident line with the lane
// kernel. The matched lane's value is loaded after its key was observed —
// the same key-then-value order the scalar path uses — from the line the
// kernel just touched, so the load is an L1 hit, not a second memory touch.
func (h *Handle) drainGet(p *pending, resps []table.Response, nresp *int) (wrote, blocked bool) {
	arr, size := h.regs[p.part].arr, h.rslots
	key, idx, probes := p.req.Key, p.idx, p.probes
	h.stats.KeyLines++
	switch k := arr.Key(idx); k {
	case key:
		if *nresp >= len(resps) {
			return false, true
		}
		return h.retire(p, table.Get, arr.WaitValue(idx), true, false, resps, nresp)
	case table.EmptyKey:
		if *nresp >= len(resps) {
			return false, true
		}
		return h.retire(p, table.Get, 0, false, false, resps, nresp)
	}

	for {
		l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
		lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(idx-base))
		switch res {
		case simd.HitKey:
			if *nresp >= len(resps) {
				return false, true
			}
			return h.retire(p, table.Get, arr.WaitValue(base+uint64(lane)), true, false, resps, nresp)
		case simd.HitEmpty:
			if *nresp >= len(resps) {
				return false, true
			}
			return h.retire(p, table.Get, 0, false, false, resps, nresp)
		}
		if probes+valid-(idx-base) >= size {
			// Full-table probe: not found.
			if *nresp >= len(resps) {
				return false, true
			}
			return h.completeFailed(p, resps, nresp)
		}
		// Missed line: advance past it. Lanes before the entry offset were
		// examined on an earlier pass (or never); only cidx..valid-1 count
		// toward the full-table bound, exactly matching the scalar loop's
		// per-slot accounting. The cursor lives in the locals idx and probes
		// (p is the ring slot itself, so p.idx would be a store per line);
		// reprobe stores it back once, before the move, and a blocked return
		// leaves the slot as it found it.
		probes += valid - (idx - base)
		next := base + table.SlotsPerCacheLine
		if next >= size {
			next = 0
		}
		idx = next
		if slotarr.LineOf(next) != slotarr.LineOf(base) {
			// Crossing into a new line: re-enqueue behind a fresh prefetch.
			h.reprobe(p, idx, probes)
			return false, false
		}
		// Single-line-table wrap: the probe stays cache-resident; keep
		// draining, counting the new visit of the same line.
		h.stats.KeyLines++
	}
}

// drainUpdate resolves a pending Put (add=false) or Upsert (add=true). An
// empty lane located in the snapshot is claimed with the key-word CAS; a
// lost race re-snapshots the line and reruns the kernel — the monotonic key
// transitions (empty → key → tombstone, never reused) guarantee the rerun
// observes the interfering claim and either matches it (same key) or probes
// past it.
func (h *Handle) drainUpdate(p *pending, add bool, resps []table.Response, nresp *int) (wrote, blocked bool) {
	t, arr, size := h.t, h.regs[p.part].arr, h.rslots
	op := table.Put
	if add {
		op = table.Upsert
	}
	key, idx, probes := p.req.Key, p.idx, p.probes
	h.stats.KeyLines++
	switch k := arr.Key(idx); k {
	case key:
		h.stats.CASAttempts++
		v := p.req.Value
		if add {
			v = arr.AddValue(idx, p.req.Value)
		} else {
			arr.StoreValue(idx, p.req.Value)
		}
		return h.retire(p, op, v, true, false, resps, nresp)
	case table.EmptyKey:
		h.stats.CASAttempts++
		if arr.CASKey(idx, table.EmptyKey, key) {
			h.stats.CASAttempts++
			arr.StoreValue(idx, p.req.Value)
			t.used.Add(1)
			t.live.Add(1)
			return h.retire(p, op, p.req.Value, true, false, resps, nresp)
		}
		// Claim race lost: fall into the kernel loop, which re-snapshots.
	}

	for {
		l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
		lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(idx-base))
		switch res {
		case simd.HitKey:
			slot := base + uint64(lane)
			h.stats.CASAttempts++
			v := p.req.Value
			if add {
				v = arr.AddValue(slot, p.req.Value)
			} else {
				arr.StoreValue(slot, p.req.Value)
			}
			return h.retire(p, op, v, true, false, resps, nresp)
		case simd.HitEmpty:
			slot := base + uint64(lane)
			h.stats.CASAttempts++
			if arr.CASKey(slot, table.EmptyKey, key) {
				h.stats.CASAttempts++
				arr.StoreValue(slot, p.req.Value)
				t.used.Add(1)
				t.live.Add(1)
				return h.retire(p, op, p.req.Value, true, false, resps, nresp)
			}
			// Claim race lost: the lane now holds some key. Re-snapshot and
			// rerun the kernel over the same line.
			continue
		}
		if probes+valid-(idx-base) >= size {
			// Full-table probe: the table is full.
			return h.retire(p, op, 0, false, true, resps, nresp)
		}
		// Missed line: advance the local cursor past it, as in drainGet.
		probes += valid - (idx - base)
		next := base + table.SlotsPerCacheLine
		if next >= size {
			next = 0
		}
		idx = next
		if slotarr.LineOf(next) != slotarr.LineOf(base) {
			// Crossing into a new line: re-enqueue behind a fresh prefetch.
			h.reprobe(p, idx, probes)
			return false, false
		}
		// Single-line-table wrap: the probe stays cache-resident; keep
		// draining, counting the new visit of the same line.
		h.stats.KeyLines++
	}
}

// drainDelete resolves a pending Delete: a matched lane is tombstoned with a
// CAS that re-verifies the snapshot (a concurrent Delete of the same key may
// have won, in which case this one reports a miss, exactly like the scalar
// path).
func (h *Handle) drainDelete(p *pending) (wrote, blocked bool) {
	t, arr, size := h.t, h.regs[p.part].arr, h.rslots
	key, idx, probes := p.req.Key, p.idx, p.probes
	h.stats.KeyLines++
	switch k := arr.Key(idx); k {
	case key:
		h.pop()
		if arr.CASKey(idx, key, table.TombstoneKey) {
			t.live.Add(-1)
			h.finish(p, table.Delete, true)
		} else {
			h.finish(p, table.Delete, false)
		}
		return true, false
	case table.EmptyKey:
		h.pop()
		h.finish(p, table.Delete, false)
		return true, false
	}

	for {
		l0, l1, l2, l3, base, valid := arr.LoadKeys4(idx)
		lane, res := simd.ProbeLine4(l0, l1, l2, l3, key, table.EmptyKey, int(idx-base))
		switch res {
		case simd.HitKey:
			h.pop()
			h.stats.CASAttempts++
			if arr.CASKey(base+uint64(lane), key, table.TombstoneKey) {
				t.live.Add(-1)
				h.finish(p, table.Delete, true)
			} else {
				h.finish(p, table.Delete, false)
			}
			return true, false
		case simd.HitEmpty:
			h.pop()
			h.finish(p, table.Delete, false)
			return true, false
		}
		if probes+valid-(idx-base) >= size {
			h.pop()
			h.finish(p, table.Delete, false)
			return true, false
		}
		// Missed line: advance the local cursor past it, as in drainGet.
		probes += valid - (idx - base)
		next := base + table.SlotsPerCacheLine
		if next >= size {
			next = 0
		}
		idx = next
		if slotarr.LineOf(next) != slotarr.LineOf(base) {
			// Crossing into a new line: re-enqueue behind a fresh prefetch.
			h.reprobe(p, idx, probes)
			return false, false
		}
		// Single-line-table wrap: the probe stays cache-resident; keep
		// draining, counting the new visit of the same line.
		h.stats.KeyLines++
	}
}
