// Package growt provides an automatically resizing hash table built on the
// Folklore layout — the capability the paper defers ("we assume that an
// efficient resizing scheme can be implemented similar to Growt [35]").
//
// Resizes are incremental and cooperative, in the spirit of Growt's helping
// migration: when fill crosses the threshold, an operation installs a
// successor table (twice the size, or equal for a pure tombstone compaction)
// together with a migration cursor, and every subsequent operation helps by
// claiming one fixed-size chunk of old-generation slots and copying its live
// entries across. Migrated slots are retired with the reserved
// table.MovedKey sentinel, so the old generation's probe chains stay intact
// while entries drain out of it. During the window readers consult the old
// generation and then the new one; writers go to the new generation after
// relocating any old-generation entry for their key (see migrate.go for the
// protocol and its correctness argument). The swap to the successor is a
// plain compare-and-swap once the last chunk completes — no operation ever
// waits for more than one chunk copy.
//
// Tombstone space is reclaimed on every resize (the paper: "The space is
// freed only when the hash table is resized"): the chunk copy skips
// tombstones, so they simply do not exist in the successor.
package growt

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dramhit/internal/folklore"
	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// DefaultMaxFill is the fill factor (claimed slots, including tombstones,
// over capacity) that triggers growth; open addressing degrades sharply
// past ~0.8, and the paper evaluates at 0.75.
const DefaultMaxFill = 0.75

// DefaultChunkSlots is the number of old-generation slots one helping
// operation migrates. It bounds the worst-case latency any single operation
// pays during a resize: one 512-slot copy (≤128 cache lines of keys at 75%
// fill) instead of the whole table.
const DefaultChunkSlots = 512

// state is one generation of the table: the current Folklore table and, when
// a resize window is open, the in-flight migration to its successor. A fresh
// state object is published for every transition (install and swap), so the
// pointer doubles as the generation identity the lock-free swap CAS keys on.
type state struct {
	cur *folklore.Table
	mig *migration // nil outside a resize window
}

// Table is an auto-resizing hash table implementing table.Map. All methods
// are safe for concurrent use.
type Table struct {
	// gate is an install barrier, not an operation lock: operations hold the
	// read side for their duration (one uncontended atomic each), and a
	// resize takes the write side only for the O(1) publication of a
	// pre-built successor — never for the migration itself. The exclusive
	// acquisition is what guarantees no operation started before the window
	// can still write the old generation once the window is open.
	gate    sync.RWMutex
	st      atomic.Pointer[state]
	maxFill float64
	chunk   uint64 // slots migrated per helping claim

	grows  atomic.Uint64 // completed resizes
	helped atomic.Uint64 // chunks migrated by helping/relocating operations
	waits  atomic.Uint64 // operations that waited on another owner's chunk

	// installing single-flights successor construction: exactly one goroutine
	// allocates the O(n) successor per window, whether it is the background
	// pre-installer or an operation that hit the threshold first. Without it,
	// every writer that finds the table full races to build its own duplicate
	// successor — a global stall the incremental migration exists to avoid.
	installing atomic.Uint32

	trace *obs.TraceRing // nil unless Observe attached a ring

	// noHelp disables the one-chunk-per-operation helping so the migration
	// property test can step the window manually; relocation (correctness)
	// is unaffected. Set only before the table is shared.
	noHelp bool
}

// Option configures a Table.
type Option func(*Table)

// WithChunkSlots overrides the migration chunk size (minimum 1). Small
// chunks mean more, cheaper helping claims; tests use chunk=1 to maximise
// the number of observable interruption points.
func WithChunkSlots(n uint64) Option {
	return func(t *Table) {
		if n < 1 {
			n = 1
		}
		t.chunk = n
	}
}

// New creates a table with an initial capacity of n slots (minimum 16) that
// grows when fill exceeds DefaultMaxFill.
func New(n uint64, opts ...Option) *Table {
	if n < 16 {
		n = 16
	}
	t := &Table{maxFill: DefaultMaxFill, chunk: DefaultChunkSlots}
	for _, o := range opts {
		o(t)
	}
	t.st.Store(&state{cur: folklore.New(n)})
	return t
}

// Get implements table.Map.
func (t *Table) Get(key uint64) (uint64, bool) {
	t.gate.RLock()
	s := t.st.Load()
	if s.mig == nil {
		v, ok := s.cur.Get(key)
		t.gate.RUnlock()
		return v, ok
	}
	if !t.noHelp {
		t.helpOne(s)
	}
	// Old-then-new: a migrated entry is published in the successor before
	// its old slot is retired, so missing it in the old generation implies
	// it is visible in the new one. Reserved keys live in the successor for
	// the whole window (install moves them), so they skip the old probe.
	var v uint64
	var ok bool
	if table.IsReservedKey(key) {
		v, ok = s.mig.next.Get(key)
	} else if v, ok = s.cur.Get(key); !ok {
		v, ok = s.mig.next.Get(key)
	}
	t.gate.RUnlock()
	t.maybeSwap(s)
	return v, ok
}

// Put implements table.Map. It never reports full: crossing the fill
// threshold triggers growth.
func (t *Table) Put(key, value uint64) bool {
	for {
		t.gate.RLock()
		s := t.st.Load()
		if s.mig != nil {
			if !t.noHelp {
				t.helpOne(s)
			}
			t.relocate(s, key)
			ok := t.admits(s) && s.mig.next.Put(key, value)
			t.gate.RUnlock()
			t.maybeSwap(s)
			if ok {
				return true
			}
			// Admission refused (heavy insert pressure): drain the
			// remaining chunks, swap, retry against the new stable
			// generation, which will grow again.
			t.drain(s)
			continue
		}
		cur := s.cur
		fill := cur.Fill()
		ok := fill < t.maxFill && cur.Put(key, value)
		t.gate.RUnlock()
		if ok {
			t.maybePreGrow(s, fill)
			return true
		}
		t.grow(s)
	}
}

// admits reports whether a window writer may claim a successor slot. The old
// generation's unmigrated live entries count against the successor's
// threshold: each is owed a slot by its chunk copy, and writers that took
// those slots would leave a preempted chunk owner copying into a full table.
// Writers racing this check overshoot by at most one slot each, which the
// headroom above maxFill absorbs.
func (t *Table) admits(s *state) bool {
	next := s.mig.next
	return next.Fill()+float64(s.cur.Len())/float64(next.Cap()) < t.maxFill
}

// Upsert implements table.Map.
func (t *Table) Upsert(key, delta uint64) (uint64, bool) {
	for {
		t.gate.RLock()
		s := t.st.Load()
		if s.mig != nil {
			if !t.noHelp {
				t.helpOne(s)
			}
			t.relocate(s, key)
			var v uint64
			ok := t.admits(s)
			if ok {
				v, ok = s.mig.next.Upsert(key, delta)
			}
			t.gate.RUnlock()
			t.maybeSwap(s)
			if ok {
				return v, true
			}
			t.drain(s)
			continue
		}
		cur := s.cur
		var v uint64
		fill := cur.Fill()
		ok := fill < t.maxFill
		if ok {
			v, ok = cur.Upsert(key, delta)
		}
		t.gate.RUnlock()
		if ok {
			t.maybePreGrow(s, fill)
			return v, true
		}
		t.grow(s)
	}
}

// Delete implements table.Map.
func (t *Table) Delete(key uint64) bool {
	t.gate.RLock()
	s := t.st.Load()
	if s.mig == nil {
		ok := s.cur.Delete(key)
		t.gate.RUnlock()
		return ok
	}
	if !t.noHelp {
		t.helpOne(s)
	}
	// A delete is a write: relocate the key's old-generation entry (if any)
	// so the tombstone lands in the successor, where it is authoritative.
	t.relocate(s, key)
	ok := s.mig.next.Delete(key)
	t.gate.RUnlock()
	t.maybeSwap(s)
	return ok
}

// Len implements table.Map. During a window it is the sum of both
// generations' live counts; relocation marks the old slot before the
// operation returns, so the sum is exact whenever no operation is in flight.
func (t *Table) Len() int {
	t.gate.RLock()
	s := t.st.Load()
	n := s.cur.Len()
	if s.mig != nil {
		n += s.mig.next.Len()
	}
	t.gate.RUnlock()
	return n
}

// Cap implements table.Map. During a window it reports the successor's
// capacity — that allocation is already committed.
func (t *Table) Cap() int {
	t.gate.RLock()
	s := t.st.Load()
	c := s.cur.Cap()
	if s.mig != nil {
		c = s.mig.next.Cap()
	}
	t.gate.RUnlock()
	return c
}

// Grows returns the number of completed resizes.
func (t *Table) Grows() int { return int(t.grows.Load()) }

// Fill returns the fill factor of the generation accepting writes (the
// successor during a window — the old generation is by definition over the
// threshold then, which is transient state, not capacity pressure).
func (t *Table) Fill() float64 {
	t.gate.RLock()
	s := t.st.Load()
	f := s.cur.Fill()
	if s.mig != nil {
		f = s.mig.next.Fill()
	}
	t.gate.RUnlock()
	return f
}

// Stats is a point-in-time snapshot of the table's resize machinery.
type Stats struct {
	// Grows counts completed resizes (swaps to a successor generation).
	Grows uint64
	// ChunksHelped counts migration chunks copied by helping or relocating
	// operations over the table's lifetime.
	ChunksHelped uint64
	// ChunkWaits counts operations that had to wait for another operation's
	// in-flight chunk copy (the bounded wait of the protocol).
	ChunkWaits uint64
	// Migrating reports whether a resize window is currently open;
	// MigrationDone/MigrationTotal are its chunk progress when it is.
	Migrating      bool
	MigrationDone  uint64
	MigrationTotal uint64
	// InstallPending reports that a successor is being built (the window
	// will open once the allocation lands) — the pre-install phase.
	InstallPending bool
}

// Stats returns the current resize statistics.
func (t *Table) Stats() Stats {
	st := Stats{
		Grows:          t.grows.Load(),
		ChunksHelped:   t.helped.Load(),
		ChunkWaits:     t.waits.Load(),
		InstallPending: t.installing.Load() == 1,
	}
	if s := t.st.Load(); s.mig != nil {
		st.Migrating = true
		st.MigrationDone = s.mig.done.Load()
		st.MigrationTotal = s.mig.nchunks
	}
	return st
}

// Observe attaches the table to the observability registry: a pull source
// reports the resize counters and migration progress at scrape time, and
// resize lifecycle events (install / chunk / swap) are recorded into the
// registry's trace ring. Call before the table is shared.
func (t *Table) Observe(reg *obs.Registry) {
	t.trace = reg.Trace()
	reg.AddHeatmapSource("growt", func() obs.Heatmap {
		// The write generation's map is the one that predicts op cost: the
		// successor during a window (the old generation is by definition
		// over-full transient state). Migration progress rides along as
		// gauges so a scrape can tell "bimodal fill" from "mid-resize".
		t.gate.RLock()
		s := t.st.Load()
		gen := s.cur
		var done, total uint64
		if s.mig != nil {
			gen = s.mig.next
			done, total = s.mig.done.Load(), s.mig.nchunks
		}
		t.gate.RUnlock()
		hm := gen.Heatmap()
		hm.Gauges["grows"] = float64(t.grows.Load())
		hm.Gauges["migrating"] = 0
		if total != 0 {
			hm.Gauges["migrating"] = 1
			hm.Gauges["migration_progress"] = float64(done) / float64(total)
		}
		return hm
	})
	reg.AddSource("growt", func() map[string]float64 {
		st := t.Stats()
		migrating := 0.0
		progress := 1.0
		if st.Migrating {
			migrating = 1
			progress = float64(st.MigrationDone) / float64(st.MigrationTotal)
		}
		return map[string]float64{
			"grows":              float64(st.Grows),
			"chunks_helped":      float64(st.ChunksHelped),
			"chunk_waits":        float64(st.ChunkWaits),
			"migrating":          migrating,
			"migration_progress": progress,
			"live":               float64(t.Len()),
			"slots":              float64(t.Cap()),
			"fill":               t.Fill(),
		}
	})
}

// preGrowFill is the fraction of maxFill at which a table starts
// building the successor in the background, so the O(n) allocation overlaps
// with the inserts that will eventually need it instead of stalling the one
// operation that crosses the threshold. The ~10% headroom covers the
// allocation at realistic insert rates; if inserts outrun it, threshold
// crossers wait for the in-flight install rather than allocating duplicates.
const preGrowFill = 0.9

// maybePreGrow kicks off a background successor install once fill reaches
// preGrowFill·maxFill. Single-flighted by the installing latch; a no-op
// under noHelp (tests drive windows manually).
func (t *Table) maybePreGrow(s *state, fill float64) {
	if fill < t.maxFill*preGrowFill || t.noHelp {
		return
	}
	if !t.installing.CompareAndSwap(0, 1) {
		return
	}
	go func() {
		defer t.installing.Store(0)
		if t.st.Load() == s { // still the generation we saw filling up
			t.install(s, t.growCap(s.cur))
		}
	}()
}

// growCap applies the growth policy: when the table is genuinely filling
// with live entries, double; when tombstone churn (insert/delete cycles)
// consumed the claimed-slot budget while the live count stayed low, rebuild
// at the same size — a pure compaction that keeps capacity proportional to
// live data.
func (t *Table) growCap(old *folklore.Table) uint64 {
	newCap := uint64(old.Cap()) * 2
	if float64(old.Len())/float64(old.Cap()) < t.maxFill/2 {
		newCap = uint64(old.Cap())
	}
	return newCap
}

// grow starts a resize from the generation the caller observed as over-full;
// if another goroutine already moved past it, the call is a no-op.
func (t *Table) grow(seen *state) {
	if t.installing.CompareAndSwap(0, 1) {
		t.install(seen, t.growCap(seen.cur))
		t.installing.Store(0)
		return
	}
	// The successor is already being built (usually by the background
	// pre-installer). Wait for the window instead of allocating a duplicate:
	// the stall is bounded by the remainder of one allocation, and only
	// operations that outran the pre-install headroom ever get here.
	for t.st.Load() == seen && t.installing.Load() == 1 {
		runtime.Gosched()
	}
}

var _ table.Map = (*Table)(nil)
