// Package slotarr implements the shared storage substrate of every
// open-addressing table in this repository: a single contiguous array of
// 16-byte key/value slots (four per cache line, as in the paper), the
// reserved-key side slots, and the atomicity protocol.
//
// # Atomicity protocol
//
// The paper relies on a double-word compare-and-swap (cmpxchg16b) to make
// the insertion of a ≤16-byte tuple atomic. Go exposes no 128-bit CAS, so we
// substitute a claim-then-publish protocol with identical reader-visible
// semantics:
//
//   - every value word is initialized to InFlightValue;
//   - an insert claims the slot with an 8-byte CAS on the key word
//     (EmptyKey → key) and then atomically stores the value;
//   - a reader loads the key, and on a match loads the value; if it observes
//     InFlightValue the racing insert has claimed but not yet published, so
//     the reader spins briefly (the window is two instructions wide).
//
// Key words only ever transition EmptyKey → key → TombstoneKey, and
// tombstoned slots are never reused (space is reclaimed on resize only,
// paper §3 "Operations"), which is what makes the unsynchronized read path
// linearizable. InFlightValue is reserved: callers must not store it as a
// value (the tables' public API documents this).
package slotarr

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"dramhit/internal/hugemem"
	"dramhit/internal/simd"
	"dramhit/internal/table"
)

// InFlightValue marks a claimed-but-unpublished slot value. It is the one
// value-space reservation the protocol needs (the paper reserves two
// key-space values instead, which we also do: see table.EmptyKey and
// table.TombstoneKey).
const InFlightValue uint64 = ^uint64(0) - 1

// Array is a contiguous array of key/value slots. The zero value is not
// usable; construct with New.
type Array struct {
	// words holds key/value pairs interleaved: slot i is
	// (words[2i], words[2i+1]). A flat uint64 slice keeps the layout
	// identical to the paper's: 64-byte line = 4 slots.
	words []uint64
	size  uint64
}

// New allocates an array of n slots with all keys Empty and all values
// InFlight. The backing storage is padded to a whole number of cache lines;
// the padding slots' keys are permanently TombstoneKey, so line-granular
// loads can read a full line unconditionally and the kernel skips the
// padding lanes the same way it skips real tombstones.
func New(n uint64) *Array {
	if n == 0 {
		panic("slotarr: zero-size array")
	}
	padded := (n + table.SlotsPerCacheLine - 1) / table.SlotsPerCacheLine * table.SlotsPerCacheLine
	// The InFlight fill is also the array's first touch: hugemem runs it per
	// chunk (even offsets, so value words stay the odd ones) before it
	// collapses the chunk into huge pages.
	words := hugemem.Uint64s(int(2*padded), func(_ int, chunk []uint64) {
		for i := 1; i < len(chunk); i += 2 {
			chunk[i] = InFlightValue
		}
	})
	for i := n; i < padded; i++ {
		words[2*i] = table.TombstoneKey
	}
	return &Array{words: words, size: n}
}

// Size returns the number of slots.
func (a *Array) Size() uint64 { return a.size }

// Key atomically loads the key word of slot i.
func (a *Array) Key(i uint64) uint64 {
	return atomic.LoadUint64(&a.words[2*i])
}

// Value atomically loads the value word of slot i.
func (a *Array) Value(i uint64) uint64 {
	return atomic.LoadUint64(&a.words[2*i+1])
}

// WaitValue loads the value of slot i, spinning past the in-flight window of
// a racing insert. The spin is bounded by yielding to the scheduler, which
// matters on a single-CPU host where the racing goroutine needs the core to
// finish publishing.
func (a *Array) WaitValue(i uint64) uint64 {
	for spins := 0; ; spins++ {
		v := atomic.LoadUint64(&a.words[2*i+1])
		if v != InFlightValue {
			return v
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// CASKey performs the claim CAS on the key word of slot i.
func (a *Array) CASKey(i, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&a.words[2*i], old, new)
}

// StoreValue publishes the value of slot i.
func (a *Array) StoreValue(i, v uint64) {
	atomic.StoreUint64(&a.words[2*i+1], v)
}

// AddValue atomically adds delta to the value of slot i, first waiting out a
// racing insert's in-flight window, and returns the new value.
func (a *Array) AddValue(i, delta uint64) uint64 {
	// Wait until the initial publish lands; after that the value word never
	// returns to InFlightValue, so the subsequent Add is safe.
	a.WaitValue(i)
	return atomic.AddUint64(&a.words[2*i+1], delta)
}

// LoadKeys4 snapshots the four key lanes of the cache line containing slot
// i, in registers, with one pass of atomic loads in ascending address order.
// It returns them with the slot index of lane 0 and the count of lanes
// backed by real slots (valid < SlotsPerCacheLine only on the array's final,
// partial line). Padding lanes read as TombstoneKey, so they match neither a
// probe key nor EmptyKey in the lane kernel. A caller needs at most one
// value afterwards (the matched lane's, an L1 hit since the line was just
// touched).
//
// The snapshot may be stale by the time the caller acts on it: key words are
// monotonic (EmptyKey → key → TombstoneKey, never reused), so a key match
// stays a match, and a lane seen empty is re-verified by the claim CAS —
// callers re-snapshot when that CAS fails. The body is branchless (New pads
// the backing array to whole lines) so it inlines into the probe loops.
func (a *Array) LoadKeys4(i uint64) (l0, l1, l2, l3, base, valid uint64) {
	base = i &^ (table.SlotsPerCacheLine - 1)
	valid = a.size - base
	if valid > table.SlotsPerCacheLine {
		valid = table.SlotsPerCacheLine
	}
	w := a.words[2*base : 2*base+2*table.SlotsPerCacheLine]
	l0 = atomic.LoadUint64(&w[0])
	l1 = atomic.LoadUint64(&w[2])
	l2 = atomic.LoadUint64(&w[4])
	l3 = atomic.LoadUint64(&w[6])
	return l0, l1, l2, l3, base, valid
}

// LineOf returns the cache-line index of slot i (4 slots per 64-byte line),
// used by the pipelined tables to decide whether a probe crosses into a new
// line.
func LineOf(i uint64) uint64 { return i / table.SlotsPerCacheLine }

// Prefetch issues hardware prefetches (simd.PrefetchPair) for the cache line
// containing slot i and the line after it: a probe that starts at i visits
// both before it needs another prefetch. It loads nothing, so the
// instructions retire without waiting for the lines, and a window of them
// issued back-to-back keeps that many DRAM misses in flight — the
// memory-level parallelism the paper's prefetch engine exploits (§3.1). On
// the last line the second prefetch falls one line past the array, where it
// fetches nothing the probe uses and cannot fault.
func (a *Array) Prefetch(i uint64) {
	simd.PrefetchPair(unsafe.Pointer(&a.words[2*(i&^(table.SlotsPerCacheLine-1))]))
}

// side-slot states.
const (
	sideEmpty uint64 = iota
	sidePresent
	sideTombstone
)

// SideSlot stores the value for one reserved key (EmptyKey or TombstoneKey).
// Unlike array slots it may be reused after deletion, because it is a single
// addressed location with no probe chain to corrupt.
type SideSlot struct {
	state uint64
	val   uint64
	_     [6]uint64 // pad to a cache line so the two side slots don't false-share
}

// Get returns the stored value and presence.
func (s *SideSlot) Get() (uint64, bool) {
	if atomic.LoadUint64(&s.state) != sidePresent {
		return 0, false
	}
	for spins := 0; ; spins++ {
		v := atomic.LoadUint64(&s.val)
		if v != InFlightValue {
			return v, true
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// Put stores v, inserting if needed. Returns true if the key was newly
// inserted (false if it overwrote).
func (s *SideSlot) Put(v uint64) bool {
	for {
		switch atomic.LoadUint64(&s.state) {
		case sidePresent:
			atomic.StoreUint64(&s.val, v)
			return false
		case sideEmpty:
			if atomic.CompareAndSwapUint64(&s.state, sideEmpty, sidePresent) {
				atomic.StoreUint64(&s.val, v)
				return true
			}
		case sideTombstone:
			// Reinsertion: park the value at in-flight before flipping the
			// state so no reader can observe the previous incarnation.
			atomic.StoreUint64(&s.val, InFlightValue)
			if atomic.CompareAndSwapUint64(&s.state, sideTombstone, sidePresent) {
				atomic.StoreUint64(&s.val, v)
				return true
			}
		}
	}
}

// Upsert adds delta, inserting delta if absent; returns the new value and
// whether an existing entry was updated.
func (s *SideSlot) Upsert(delta uint64) (uint64, bool) {
	for {
		switch atomic.LoadUint64(&s.state) {
		case sidePresent:
			for spins := 0; ; spins++ {
				if atomic.LoadUint64(&s.val) != InFlightValue {
					return atomic.AddUint64(&s.val, delta), true
				}
				if spins > 64 {
					runtime.Gosched()
				}
			}
		case sideEmpty:
			if atomic.CompareAndSwapUint64(&s.state, sideEmpty, sidePresent) {
				atomic.StoreUint64(&s.val, delta)
				return delta, false
			}
		case sideTombstone:
			atomic.StoreUint64(&s.val, InFlightValue)
			if atomic.CompareAndSwapUint64(&s.state, sideTombstone, sidePresent) {
				atomic.StoreUint64(&s.val, delta)
				return delta, false
			}
		}
	}
}

// Delete tombstones the slot, reporting whether it was present.
func (s *SideSlot) Delete() bool {
	return atomic.CompareAndSwapUint64(&s.state, sidePresent, sideTombstone)
}

// Present reports whether the slot currently holds a value.
func (s *SideSlot) Present() bool {
	return atomic.LoadUint64(&s.state) == sidePresent
}

// SidePair bundles the reserved-key side slots and routes reserved keys.
// (Historically two slots — empty and tombstone — it grew a third when
// table.MovedKey joined the reserved set for growt's incremental migration;
// the name stuck.)
type SidePair struct {
	empty     SideSlot
	tombstone SideSlot
	moved     SideSlot
}

// For returns the side slot responsible for key, or nil if key is not
// reserved.
func (p *SidePair) For(key uint64) *SideSlot {
	switch key {
	case table.EmptyKey:
		return &p.empty
	case table.TombstoneKey:
		return &p.tombstone
	case table.MovedKey:
		return &p.moved
	}
	return nil
}

// Count returns how many reserved keys are currently present (0–3).
func (p *SidePair) Count() int {
	n := 0
	if p.empty.Present() {
		n++
	}
	if p.tombstone.Present() {
		n++
	}
	if p.moved.Present() {
		n++
	}
	return n
}
