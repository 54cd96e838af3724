// Write-side request combining for the partitioned table.
//
// A WriteHandle coalesces Upserts: a small per-handle window holds
// (key, delta) pairs and folds a duplicate key's delta into the held entry
// instead of sending a second delegation message, so a fold costs no
// delegation slot. Held entries drain on window overflow and — before
// anything that could observe them — on Flush, Barrier, Close, and same-key
// Put/Delete, so the partition owner still sees one linearizable per-key
// stream. Reads are not combined: ReadHandles run dramhit's ring, which
// executes every lookup by its own probe.
//
// Folding is not a switch: at zipf 0.99 on a cache-resident table it cut
// the owner path's time per Upsert to 0.80x of sending each one, and it tied
// elsewhere (EXPERIMENTS.md, write-side folding).
package dramhitp

import (
	"dramhit/internal/delegation"
	"dramhit/internal/table"
)

// coalesceWindow is the WriteHandle hold capacity. Small and fixed: the
// scan is a linear pass over at most 16 resident keys (two cache lines),
// cheaper than the delegation enqueue it saves even on a miss.
const coalesceWindow = 16

// holdUpsert folds delta into a held same-key entry, or holds a new one.
// Partition fullness is checked at hold time, mirroring send, so the
// caller sees the same drop signal the direct path would give it.
func (w *WriteHandle) holdUpsert(key, delta uint64) bool {
	for i := 0; i < w.cn; i++ {
		if w.ckeys[i] == key {
			w.cvals[i] += delta
			w.Combined++
			return true
		}
	}
	t := w.t
	part, _ := t.locate(key)
	if t.parts[part].full.Load() {
		t.dropped.Add(1)
		return false
	}
	if w.cn == coalesceWindow {
		w.flushHeld()
	}
	w.ckeys[w.cn] = key
	w.cvals[w.cn] = delta
	w.cn++
	return true
}

// flushHeld delegates every held upsert to its partition owner. Fullness
// was checked at hold time (and an update to a full partition fails in the
// owner's ring regardless), so the flush sends unconditionally.
func (w *WriteHandle) flushHeld() {
	t := w.t
	for i := 0; i < w.cn; i++ {
		part, _ := t.locate(w.ckeys[i])
		w.p.Send(t.ownerOf(part), delegation.Message{A: w.ckeys[i], B: w.cvals[i], Aux: uint64(table.Upsert)})
	}
	w.sends += uint64(w.cn)
	w.cn = 0
}

// flushKey releases just the held entry for key, preserving per-key
// operation order when a Put or Delete trails a held Upsert.
func (w *WriteHandle) flushKey(key uint64) {
	for i := 0; i < w.cn; i++ {
		if w.ckeys[i] != key {
			continue
		}
		t := w.t
		part, _ := t.locate(key)
		w.p.Send(t.ownerOf(part), delegation.Message{A: key, B: w.cvals[i], Aux: uint64(table.Upsert)})
		w.sends++
		w.cn--
		w.ckeys[i] = w.ckeys[w.cn]
		w.cvals[i] = w.cvals[w.cn]
		return
	}
}
