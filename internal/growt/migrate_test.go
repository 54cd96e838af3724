package growt

import (
	"sync"
	"testing"

	"dramhit/internal/obs"
	"dramhit/internal/workload"
)

// checkMigrationInvariants asserts, at one interruption point of an open (or
// just-closed) window, the three properties the migration protocol promises:
//
//  1. the multiset of live entries across old∪new equals the reference map
//     (same size, same keys, same values);
//  2. no key is live in both generations at once (copy-then-kill means a key
//     is visible on exactly one side of the MovedKey transition);
//  3. every reference entry is visible through the public Get, and Len
//     agrees with the reference size.
//
// Called only at quiescent points (no operation in flight), where the sums
// are exact.
func checkMigrationInvariants(t *testing.T, tb *Table, ref map[uint64]uint64) {
	t.Helper()
	s := tb.st.Load()
	if got := tb.Len(); got != len(ref) {
		t.Fatalf("Len = %d, reference %d", got, len(ref))
	}
	union := make(map[uint64]uint64, len(ref))
	s.cur.Range(func(k, v uint64) bool {
		union[k] = v
		return true
	})
	if s.mig != nil {
		s.mig.next.Range(func(k, v uint64) bool {
			if _, dup := union[k]; dup {
				t.Fatalf("key %#x live in both generations", k)
			}
			union[k] = v
			return true
		})
	}
	if len(union) != len(ref) {
		t.Fatalf("old∪new holds %d entries, reference %d", len(union), len(ref))
	}
	for k, want := range ref {
		if got, ok := union[k]; !ok || got != want {
			t.Fatalf("old∪new[%#x] = (%d,%v), want (%d,true)", k, got, ok, want)
		}
		if got, ok := tb.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = (%d,%v), want (%d,true)", k, got, ok, want)
		}
	}
}

// openWindow seeds tb (with tombstone churn) until a migration window is
// installed, mirroring every mutation into ref, and returns the key slice
// used. Requires tb.noHelp so the window stays open.
func openWindow(t *testing.T, tb *Table, ref map[uint64]uint64, seed int64) []uint64 {
	t.Helper()
	keys := workload.UniqueKeys(seed, 4096)
	for i := 0; ; i++ {
		if i >= len(keys) {
			t.Fatal("window never opened")
		}
		k := keys[i]
		tb.Put(k, k^5)
		ref[k] = k ^ 5
		// Check before the churn delete: the Put above may have opened the
		// window, and a delete issued after install would (correctly)
		// tombstone the successor, muddying the callers' accounting.
		if tb.st.Load().mig != nil {
			return keys
		}
		if i%7 == 3 { // churn: accumulate old-generation tombstones
			tb.Delete(keys[i-1])
			delete(ref, keys[i-1])
		}
	}
}

// TestMigrationInvariantsAtEveryInterruption steps an open window one chunk
// at a time and, between chunk claims, injects a goroutine performing
// puts, upserts, and deletes that race the copy (relocation and all); after
// each join the three window invariants must hold exactly. Run under -race
// this doubles as the protocol's visibility check at every interruption
// point a helping schedule can produce.
func TestMigrationInvariantsAtEveryInterruption(t *testing.T) {
	tb := New(512, WithChunkSlots(16))
	tb.noHelp = true
	ref := make(map[uint64]uint64)
	openWindow(t, tb, ref, 4242)
	checkMigrationInvariants(t, tb, ref) // freshly installed, zero chunks done

	windowDeletes := 0
	for step := 0; ; step++ {
		s := tb.st.Load()
		if s.mig == nil {
			break
		}
		// Inject concurrent mutations racing this step's chunk copy. Keys
		// are fresh each step and (deterministically, for this fixed seed)
		// disjoint from the seeded keys, so the reference outcome after the
		// join is exact.
		base := uint64(1)<<40 + uint64(step)*8
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb.Put(base, base)
			tb.Put(base+1, base+1)
			tb.Upsert(base, 2)
			tb.Delete(base + 1)
			tb.Put(base+2, base+2)
		}()
		// Step the migration forward one chunk while the ops run.
		if s.mig != nil {
			tb.helpOne(s)
			tb.maybeSwap(s)
		}
		wg.Wait()
		ref[base] = base + 2
		ref[base+2] = base + 2
		windowDeletes++
		checkMigrationInvariants(t, tb, ref)
	}
	// The resize completed. Tombstones from before and during the old
	// generation's lifetime were reclaimed by the copy; the only tombstones
	// the final table may carry are the deletes issued into the successor
	// while its window was open.
	s := tb.st.Load()
	if s.mig != nil {
		t.Fatal("window still open after loop exit")
	}
	if tombs := s.cur.Used() - s.cur.Len(); tombs > windowDeletes {
		t.Fatalf("%d tombstones survived the resize; only %d deletes hit the successor",
			tombs, windowDeletes)
	}
	checkMigrationInvariants(t, tb, ref)
}

// TestTombstonesNeverSurviveCompletedResize drives a window to completion
// with no deletes after install: the successor must then contain zero
// tombstones (Used == Len), i.e. all pre-window churn was reclaimed.
func TestTombstonesNeverSurviveCompletedResize(t *testing.T) {
	tb := New(256, WithChunkSlots(4))
	tb.noHelp = true
	ref := make(map[uint64]uint64)
	openWindow(t, tb, ref, 777)
	old := tb.st.Load().cur
	if old.Used() == old.Len() {
		t.Fatal("seeding produced no tombstones; churn broken")
	}
	for {
		s := tb.st.Load()
		if s.mig == nil {
			break
		}
		tb.helpOne(s)
		tb.maybeSwap(s)
		checkMigrationInvariants(t, tb, ref)
	}
	cur := tb.st.Load().cur
	if cur.Used() != cur.Len() {
		t.Fatalf("completed resize carries %d tombstones (used %d, live %d)",
			cur.Used()-cur.Len(), cur.Used(), cur.Len())
	}
}

// TestRelocationOrdersWriterAgainstCopy pins the linchpin interleaving the
// relocation rule exists for: with the key's chunk never helped, a window
// writer must itself migrate the chunk before writing the successor, so a
// put-then-delete during the window can never be resurrected by a later
// chunk copy replaying the old value.
func TestRelocationOrdersWriterAgainstCopy(t *testing.T) {
	tb := New(64, WithChunkSlots(1))
	tb.noHelp = true
	ref := make(map[uint64]uint64)
	keys := openWindow(t, tb, ref, 31337)
	// Pick a key that is still live in the old generation.
	var victim uint64
	s := tb.st.Load()
	found := false
	for _, k := range keys {
		if _, ok := ref[k]; !ok {
			continue
		}
		if _, live := s.cur.Locate(k); live {
			victim, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no live old-generation key to test against")
	}
	// Overwrite then delete through the public API mid-window.
	tb.Put(victim, 999)
	tb.Delete(victim)
	delete(ref, victim)
	if _, ok := tb.Get(victim); ok {
		t.Fatal("deleted key still visible mid-window")
	}
	// Drain the rest of the window; the delete must not be resurrected by
	// any remaining chunk copy.
	for {
		s := tb.st.Load()
		if s.mig == nil {
			break
		}
		tb.helpOne(s)
		tb.maybeSwap(s)
		if _, ok := tb.Get(victim); ok {
			t.Fatal("chunk copy resurrected a deleted key")
		}
	}
	checkMigrationInvariants(t, tb, ref)
}

// TestWindowWritesLeaveRoomForMigration pins the admission rule: a window
// writer may claim a successor slot only while the successor's claimed slots
// plus the old generation's unmigrated live entries stay under the
// threshold. With the one chunk never helped (a chunk owner preempted for
// the whole window), fresh-key writers fill the successor until admission
// refuses and the refused writer drains the window; the chunk copy must find
// a slot for every old entry, so every key stays readable.
func TestWindowWritesLeaveRoomForMigration(t *testing.T) {
	tb := New(64, WithChunkSlots(1<<20))
	tb.noHelp = true
	ref := make(map[uint64]uint64)
	openWindow(t, tb, ref, 99)
	if n := tb.st.Load().mig.nchunks; n != 1 {
		t.Fatalf("window has %d chunks, want 1", n)
	}
	for _, k := range workload.UniqueKeys(100, 4096) {
		if tb.Grows() > 0 {
			break
		}
		tb.Put(k, k^9)
		ref[k] = k ^ 9
	}
	if tb.Grows() == 0 {
		t.Fatal("window never closed")
	}
	checkMigrationInvariants(t, tb, ref)
}

// TestStatsAndObserve pins the atomic Grows/Stats accessors and the obs
// pull source through a forced doubling (satellite: the former plain-int
// grows field is now published state).
func TestStatsAndObserve(t *testing.T) {
	tb := New(16)
	reg := obs.NewWith(1024, 1)
	tb.Observe(reg)
	for _, k := range workload.UniqueKeys(9, 2000) {
		tb.Put(k, k)
	}
	st := tb.Stats()
	if st.Grows == 0 || int(st.Grows) != tb.Grows() {
		t.Fatalf("Stats.Grows = %d, Grows() = %d; want equal and nonzero", st.Grows, tb.Grows())
	}
	if st.ChunksHelped == 0 {
		t.Fatal("no chunks recorded as helped across forced doublings")
	}
	if st.Migrating {
		// Quiescent after sequential puts — any window must have closed by
		// the op that completed its last chunk.
		t.Fatal("window reported open at quiescence")
	}
	var vals map[string]float64
	for _, src := range reg.Sources() {
		if src.Name == "growt" {
			vals = src.Collect()
		}
	}
	if vals == nil {
		t.Fatal("Observe did not register the growt source")
	}
	if vals["grows"] != float64(st.Grows) {
		t.Fatalf("obs source grows = %v, want %d", vals["grows"], st.Grows)
	}
	if vals["migration_progress"] != 1.0 {
		t.Fatalf("obs migration_progress = %v at quiescence, want 1", vals["migration_progress"])
	}
	if vals["chunks_helped"] == 0 {
		t.Fatal("obs source chunks_helped is zero")
	}
	if got := int(vals["live"]); got != tb.Len() {
		t.Fatalf("obs live = %d, Len = %d", got, tb.Len())
	}
	// EvResize lifecycle: install/chunk/swap events must be in the ring.
	if tb.trace == nil {
		t.Fatal("Observe did not attach the trace ring")
	}
	var sawInstall, sawChunk, sawSwap bool
	for _, ev := range tb.trace.Snapshot() {
		if ev.Kind != obs.EvResize {
			continue
		}
		switch ev.Op {
		case obs.ResizeInstall:
			sawInstall = true
		case obs.ResizeChunk:
			sawChunk = true
		case obs.ResizeSwap:
			sawSwap = true
		}
	}
	if !sawInstall || !sawChunk || !sawSwap {
		t.Fatalf("trace ring missing resize phases: install=%v chunk=%v swap=%v",
			sawInstall, sawChunk, sawSwap)
	}
}
