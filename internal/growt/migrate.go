// The incremental migration state machine. One resize window is a
// four-phase concurrent protocol:
//
//	install  — the operation that finds the current generation over-full
//	           pre-builds the successor outside the gate, then takes the
//	           exclusive gate for an O(1) publication of state{cur, mig}.
//	           The exclusive acquisition is the window's memory barrier: no
//	           operation started before it can still be writing the old
//	           generation afterwards, so the migration copy never races a
//	           stale writer. Reserved-key side entries move to the successor
//	           here (O(3)), making the successor authoritative for them for
//	           the whole window.
//	help     — every subsequent operation claims at most one chunk of
//	           old-generation slots (CAS unclaimed→busy on the chunk's state
//	           cell, cursor-ordered) and copies its live entries with
//	           folklore.MigrateRange: publish in the successor, then retire
//	           the old slot with table.MovedKey. Single ownership per chunk
//	           is what makes the copy race-free.
//	relocate — a writer (Put/Upsert/Delete) whose key still has a live
//	           old-generation entry first ensures that entry's chunk is
//	           migrated — claiming it if unclaimed, waiting out the owner if
//	           busy — and only then operates on the successor. This is the
//	           linearizability linchpin: without it, a chunk owner's
//	           copy-if-absent could resurrect a value the writer had already
//	           overwritten or deleted in the successor. With it, for any key
//	           the old-generation copy strictly precedes every new-generation
//	           write of that key, so insert-if-absent always resolves in
//	           favour of the newer value. Readers never relocate: old-then-new
//	           lookup is already consistent, because retiring an old slot
//	           (MovedKey) happens only after the successor holds the entry.
//	swap     — when the last chunk completes, any operation CASes the state
//	           pointer to state{cur: successor}; the old generation, now all
//	           Empty/Tombstone/MovedKey, is garbage. Tombstones died in the
//	           copy (MigrateRange skips them), reclaiming their space exactly
//	           as the paper requires.
//
// The worst case any single operation pays is one chunk copy — either its
// own helping claim or the bounded wait in relocate — never a full-table
// copy.
package growt

import (
	"runtime"
	"sync/atomic"

	"dramhit/internal/folklore"
	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// Chunk migration states (migration.state values).
const (
	chunkUnclaimed uint32 = iota
	chunkBusy
	chunkDone
)

// migration is one open resize window.
type migration struct {
	next    *folklore.Table // the successor generation
	size    uint64          // old-generation slot count
	chunk   uint64          // slots per claim
	nchunks uint64
	cursor  atomic.Uint64   // next chunk index offered to helpers
	state   []atomic.Uint32 // per-chunk unclaimed/busy/done
	done    atomic.Uint64   // completed chunks; == nchunks ⇒ ready to swap
	traceID uint64          // trace identifier shared by this window's events
}

// install publishes a migration window from the generation the caller
// observed as over-full. The successor's O(n) allocation happens before the
// exclusive gate; the critical section is O(1) bookkeeping plus the three
// reserved-key side slots.
func (t *Table) install(seen *state, newCap uint64) {
	if t.st.Load() != seen {
		return // stale observation: someone else already resized
	}
	next := folklore.New(newCap)
	t.gate.Lock()
	if t.st.Load() != seen {
		t.gate.Unlock()
		return // lost the install race; drop our successor
	}
	old := seen.cur
	// Move the reserved-key side entries now, under exclusivity: for the
	// whole window the successor is authoritative for reserved keys, so
	// operations on them skip the old generation entirely.
	for _, rk := range []uint64{table.EmptyKey, table.TombstoneKey, table.MovedKey} {
		if v, ok := old.Get(rk); ok {
			next.Put(rk, v)
			old.Delete(rk)
		}
	}
	size := uint64(old.Cap())
	m := &migration{
		next:    next,
		size:    size,
		chunk:   t.chunk,
		nchunks: (size + t.chunk - 1) / t.chunk,
	}
	m.state = make([]atomic.Uint32, m.nchunks)
	if t.trace != nil {
		m.traceID = t.trace.NextID()
		t.trace.Record(m.traceID, obs.EvResize, obs.ResizeInstall, size, uint32(m.nchunks))
	}
	t.st.Store(&state{cur: old, mig: m})
	t.gate.Unlock()
}

// helpOne claims and migrates at most one chunk — the fixed helping quantum
// every operation contributes during a window.
func (t *Table) helpOne(s *state) {
	m := s.mig
	for m.done.Load() < m.nchunks {
		c := m.cursor.Add(1) - 1
		if c >= m.nchunks {
			return // every chunk claimed; stragglers are finishing
		}
		if m.state[c].CompareAndSwap(chunkUnclaimed, chunkBusy) {
			t.migrateChunk(s, c)
			return
		}
		// Claimed out of cursor order by a relocating writer; offer the next.
	}
}

// relocate guarantees key's old-generation entry, if one is live, has been
// migrated before the caller writes key in the successor. See the package
// comment for why every window writer must do this.
func (t *Table) relocate(s *state, key uint64) {
	if table.IsReservedKey(key) {
		return // reserved keys moved at install; successor is authoritative
	}
	slot, found := s.cur.Locate(key)
	if !found {
		return // absent or already migrated: nothing to order against
	}
	t.ensureChunk(s, slot/s.mig.chunk)
}

// ensureChunk returns once chunk c's migration is complete, claiming the
// copy itself when the chunk is unclaimed and otherwise waiting out the
// owner — a wait bounded by one chunk copy.
func (t *Table) ensureChunk(s *state, c uint64) {
	m := s.mig
	waited := false
	for spins := 0; ; spins++ {
		switch m.state[c].Load() {
		case chunkDone:
			return
		case chunkUnclaimed:
			if m.state[c].CompareAndSwap(chunkUnclaimed, chunkBusy) {
				t.migrateChunk(s, c)
				return
			}
		default: // busy
			if !waited {
				waited = true
				t.waits.Add(1)
			}
			if spins > 32 {
				runtime.Gosched()
			}
		}
	}
}

// migrateChunk copies chunk c (the caller holds its busy claim) and marks it
// done.
func (t *Table) migrateChunk(s *state, c uint64) {
	m := s.mig
	lo := c * m.chunk
	hi := lo + m.chunk
	if hi > m.size {
		hi = m.size
	}
	s.cur.MigrateRange(lo, hi, m.next)
	m.state[c].Store(chunkDone)
	done := m.done.Add(1)
	t.helped.Add(1)
	if t.trace != nil {
		t.trace.Record(m.traceID, obs.EvResize, obs.ResizeChunk, c,
			uint32(done*1000/m.nchunks))
	}
}

// maybeSwap retires a fully-migrated window: the state pointer CAS succeeds
// for exactly one caller (the pointer is the generation identity), making
// the successor the stable current generation.
func (t *Table) maybeSwap(s *state) {
	m := s.mig
	if m == nil || m.done.Load() < m.nchunks {
		return
	}
	if t.st.CompareAndSwap(s, &state{cur: m.next}) {
		t.grows.Add(1)
		if t.trace != nil {
			t.trace.Record(m.traceID, obs.EvResize, obs.ResizeSwap, m.size, 1000)
		}
	}
}

// drain force-completes a window: claim every remaining chunk, wait out busy
// owners, swap. Used when a window writer's admission was refused — the next
// growth must not start until this one has retired.
func (t *Table) drain(s *state) {
	m := s.mig
	for {
		c := m.cursor.Add(1) - 1
		if c >= m.nchunks {
			break
		}
		if m.state[c].CompareAndSwap(chunkUnclaimed, chunkBusy) {
			t.migrateChunk(s, c)
		}
	}
	for spins := 0; m.done.Load() < m.nchunks; spins++ {
		if spins > 32 {
			runtime.Gosched()
		}
	}
	t.maybeSwap(s)
}
