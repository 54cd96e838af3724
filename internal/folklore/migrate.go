// Migration primitives used by the resizing wrapper (internal/growt): a
// probe that locates a key's live slot, an insert-if-absent for copying
// entries into a successor table, and a slot-range migrator that freezes
// old-generation slots with table.MovedKey.
//
// The key-word state machine gains one terminal transition during a
// migration window:
//
//	EmptyKey → key → TombstoneKey   (delete; unchanged)
//	            key → MovedKey      (migrated; new)
//
// Both terminal states are treated identically by the probe loops — the slot
// is skipped, never reused — so readers need no awareness of an in-progress
// migration beyond the old-then-new lookup order growt imposes.
//
// Exclusivity contract: MigrateRange assumes no concurrent writers mutate
// the migrated table (growt guarantees this — the successor is installed
// under the exclusive gate, after which every write is redirected to the new
// generation). Concurrent readers are always safe: the copy publishes the
// entry in the destination before the MovedKey mark retires the source, so
// any reader that misses the old slot finds the new one.
package folklore

import "dramhit/internal/table"

// Used returns the number of claimed slots, including tombstones and
// MovedKey marks — the quantity Fill is computed from. Tests and the
// migration property suite use it to assert that tombstones never survive a
// completed resize (Used == Len on a freshly migrated table).
func (t *Table) Used() int { return int(t.used.Load()) }

// Locate returns the array slot currently holding key live, and whether one
// was found. Reserved keys live in side slots, never in the array, so they
// always report not-found. The result is a snapshot: the slot can be
// tombstoned or migrated by the time the caller acts on it, which the
// callers (growt's relocation path) tolerate — both transitions are
// terminal, so a stale slot index can never point at a different key.
func (t *Table) Locate(key uint64) (uint64, bool) {
	if t.side.For(key) != nil {
		return 0, false
	}
	i := t.index(key)
	for probes := uint64(0); probes < t.size; probes++ {
		switch t.arr.Key(i) {
		case key:
			return i, true
		case table.EmptyKey:
			return 0, false
		}
		i = t.step(i)
	}
	return 0, false
}

// PutIfAbsent stores value for key only if the key is not present, and
// reports whether it inserted. It is the copy primitive of migration: a
// migrated entry must never overwrite a newer value written directly to the
// successor table. Returns false without writing when the key is already
// live (the new generation won the race) and also — like Put — when the
// table has no free slot on the probe path.
func (t *Table) PutIfAbsent(key, value uint64) bool {
	if s := t.side.For(key); s != nil {
		if _, ok := s.Get(); ok {
			return false
		}
		s.Put(value)
		return true
	}
	i := t.index(key)
	for probes := uint64(0); probes < t.size; probes++ {
		switch t.arr.Key(i) {
		case key:
			return false
		case table.EmptyKey:
			if t.arr.CASKey(i, table.EmptyKey, key) {
				t.arr.StoreValue(i, value)
				t.used.Add(1)
				t.live.Add(1)
				return true
			}
			continue // claim race: re-inspect the slot
		}
		i = t.step(i)
	}
	return false
}

// MigrateRange migrates the live entries of slots [lo, hi) into dst and
// returns how many entries it moved. Each live slot is copied with
// insert-if-absent, then retired by CASing its key word to table.MovedKey
// (copy-then-kill: publish in dst strictly before retiring the source, so
// old-then-new readers never miss the entry). Tombstones and already-moved
// slots are skipped — this is where tombstone space is reclaimed, exactly as
// the paper requires ("The space is freed only when the hash table is
// resized"). The caller must guarantee range-exclusivity (one migrator per
// range, no concurrent writers to this table); see the package comment.
//
// MigrateRange panics if dst refuses an entry. Under growt's
// relocate-before-write rule a migrating key is never already live in dst, so
// a refusal means dst has no free slot on the probe path; retiring the source
// slot then would lose the key, and the caller's admission rule exists to
// make that impossible.
func (t *Table) MigrateRange(lo, hi uint64, dst *Table) int {
	if hi > t.size {
		hi = t.size
	}
	moved := 0
	for i := lo; i < hi; i++ {
		k := t.arr.Key(i)
		if table.IsReservedKey(k) {
			continue // empty, tombstone, or already moved
		}
		v := t.arr.WaitValue(i)
		if !dst.PutIfAbsent(k, v) {
			panic("folklore: MigrateRange could not publish an entry in the successor")
		}
		// Under the exclusivity contract nothing else transitions this key
		// word, so the CAS cannot lose; the check is defensive.
		if t.arr.CASKey(i, k, table.MovedKey) {
			t.live.Add(-1)
			moved++
		}
	}
	return moved
}
