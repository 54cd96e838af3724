package slotarr

import (
	"sync"
	"testing"

	"dramhit/internal/simd"
	"dramhit/internal/table"
)

func TestNewInitializesInFlight(t *testing.T) {
	a := New(16)
	for i := uint64(0); i < 16; i++ {
		if a.Key(i) != table.EmptyKey {
			t.Fatalf("slot %d key not empty", i)
		}
		if a.Value(i) != InFlightValue {
			t.Fatalf("slot %d value not in-flight", i)
		}
	}
}

func TestClaimThenPublish(t *testing.T) {
	a := New(4)
	if !a.CASKey(2, table.EmptyKey, 99) {
		t.Fatal("claim CAS failed on empty slot")
	}
	if a.CASKey(2, table.EmptyKey, 100) {
		t.Fatal("second claim succeeded")
	}
	a.StoreValue(2, 1234)
	if a.WaitValue(2) != 1234 {
		t.Fatal("published value lost")
	}
}

func TestWaitValueSpinsThroughInFlight(t *testing.T) {
	a := New(4)
	a.CASKey(0, table.EmptyKey, 5)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.StoreValue(0, 42)
	}()
	if v := a.WaitValue(0); v != 42 {
		t.Fatalf("WaitValue = %d", v)
	}
	wg.Wait()
}

func TestAddValueWaitsOutInFlight(t *testing.T) {
	a := New(4)
	a.CASKey(0, table.EmptyKey, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := a.AddValue(0, 10); got != 17 {
			t.Errorf("AddValue = %d, want 17", got)
		}
	}()
	a.StoreValue(0, 7)
	<-done
}

func TestLineOf(t *testing.T) {
	for i, want := range []uint64{0, 0, 0, 0, 1, 1, 1, 1, 2} {
		if got := LineOf(uint64(i)); got != want {
			t.Errorf("LineOf(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestPrefetchIsHarmless drives Prefetch over every slot of arrays whose last
// line is partial (padded) or whole: no call may panic or change what the
// slots hold.
func TestPrefetchIsHarmless(t *testing.T) {
	for _, a := range []*Array{New(9), New(61), New(64)} {
		last := a.Size() - 1
		a.CASKey(last, table.EmptyKey, 7)
		a.StoreValue(last, 70)
		for i := uint64(0); i < a.Size(); i++ {
			a.Prefetch(i)
		}
		if a.Key(last) != 7 || a.WaitValue(last) != 70 {
			t.Fatalf("size %d: prefetch disturbed the slot", a.Size())
		}
	}
}

func TestSideSlotLifecycle(t *testing.T) {
	var s SideSlot
	if _, ok := s.Get(); ok {
		t.Fatal("fresh side slot present")
	}
	if !s.Put(5) {
		t.Fatal("first Put did not report insert")
	}
	if s.Put(6) {
		t.Fatal("second Put reported insert")
	}
	if v, ok := s.Get(); !ok || v != 6 {
		t.Fatalf("Get = (%d, %v)", v, ok)
	}
	if !s.Delete() {
		t.Fatal("Delete of present failed")
	}
	if s.Delete() {
		t.Fatal("double Delete succeeded")
	}
	// Reinsert after tombstone.
	if !s.Put(9) {
		t.Fatal("reinsert failed")
	}
	if v, _ := s.Get(); v != 9 {
		t.Fatalf("reinserted value = %d", v)
	}
}

func TestSideSlotUpsert(t *testing.T) {
	var s SideSlot
	if v, updated := s.Upsert(3); updated || v != 3 {
		t.Fatalf("first upsert = (%d, %v)", v, updated)
	}
	if v, updated := s.Upsert(4); !updated || v != 7 {
		t.Fatalf("second upsert = (%d, %v)", v, updated)
	}
	s.Delete()
	if v, updated := s.Upsert(2); updated || v != 2 {
		t.Fatalf("post-delete upsert = (%d, %v)", v, updated)
	}
}

func TestSidePairRouting(t *testing.T) {
	var p SidePair
	if p.For(5) != nil {
		t.Fatal("ordinary key routed to a side slot")
	}
	e := p.For(table.EmptyKey)
	d := p.For(table.TombstoneKey)
	if e == nil || d == nil || e == d {
		t.Fatal("reserved keys must route to two distinct side slots")
	}
	if p.Count() != 0 {
		t.Fatal("fresh pair count != 0")
	}
	e.Put(1)
	d.Put(2)
	if p.Count() != 2 {
		t.Fatalf("count = %d", p.Count())
	}
}

func TestSideSlotConcurrentUpserts(t *testing.T) {
	var s SideSlot
	var wg sync.WaitGroup
	const g, n = 4, 1000
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				s.Upsert(1)
			}
		}()
	}
	wg.Wait()
	if v, _ := s.Get(); v != g*n {
		t.Fatalf("count = %d, want %d", v, g*n)
	}
}

func TestLoadKeys4PartialTail(t *testing.T) {
	// A 6-slot array's second line holds only 2 real slots; the padding
	// lanes must be poisoned so no probe key or EmptyKey can match them.
	a := New(6)
	a.CASKey(4, table.EmptyKey, 44)
	a.StoreValue(4, 4)
	l0, l1, l2, l3, base, valid := a.LoadKeys4(5)
	if base != 4 || valid != 2 {
		t.Fatalf("base=%d valid=%d, want 4,2", base, valid)
	}
	if l0 != 44 || l1 != table.EmptyKey {
		t.Fatalf("real lanes = [%#x %#x], want [44 empty]", l0, l1)
	}
	if l2 != table.TombstoneKey || l3 != table.TombstoneKey {
		t.Fatalf("padding lanes = [%#x %#x], want tombstone poison", l2, l3)
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestLoadKeys4MovedLanesAreOpaque(t *testing.T) {
	// A migrated slot carries table.MovedKey in its key word. The SWAR probe
	// kernel must treat such a lane exactly like a tombstone: it matches
	// neither the probed key (the live copy is in the successor) nor the
	// empty sentinel (the probe chain must continue past it).
	a := New(8)
	// Line 0: [moved, live 77, empty, tombstone].
	a.CASKey(0, table.EmptyKey, 42)
	a.StoreValue(0, 1)
	if !a.CASKey(0, 42, table.MovedKey) {
		t.Fatal("retire CAS failed")
	}
	a.CASKey(1, table.EmptyKey, 77)
	a.StoreValue(1, 7)
	a.CASKey(3, table.EmptyKey, 9)
	a.StoreValue(3, 9)
	a.CASKey(3, 9, table.TombstoneKey)

	l0, l1, l2, l3, _, _ := a.LoadKeys4(0)
	if l0 != table.MovedKey {
		t.Fatalf("lane 0 = %#x, want MovedKey", l0)
	}
	// Probing the retired key must run past the moved lane to the empty slot.
	if lane, res := simd.ProbeLine4(l0, l1, l2, l3, 42, table.EmptyKey, 0); res != simd.HitEmpty || lane != 2 {
		t.Fatalf("probe for retired key = (lane %d, res %d), want (2, HitEmpty)", lane, res)
	}
	// The live lane is still found with the moved lane ahead of it.
	if lane, res := simd.ProbeLine4(l0, l1, l2, l3, 77, table.EmptyKey, 0); res != simd.HitKey || lane != 1 {
		t.Fatalf("probe past moved lane = (lane %d, res %d), want (1, HitKey)", lane, res)
	}
	// A full line of moved lanes is a Miss, not a chain terminator.
	m := table.MovedKey
	if _, res := simd.ProbeLine4(m, m, m, m, 42, table.EmptyKey, 0); res != simd.Miss {
		t.Fatalf("all-moved line = res %d, want Miss", res)
	}
}
