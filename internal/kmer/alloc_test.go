package kmer

import (
	"testing"

	"dramhit/internal/chtkc"
	"dramhit/internal/dramhit"
	"dramhit/internal/slotarr"
)

// TestDRAMHiTCounterZeroAllocSteadyState pins the counting hot loop's
// allocation behaviour: the batch accumulator is reused (append into
// retained capacity, reset with [:0]) and the handle's combining arena
// recycles its merged nodes, so after warmup a Count — including the every
// 16th call that flushes a whole batch through Submit — allocates nothing.
func TestDRAMHiTCounterZeroAllocSteadyState(t *testing.T) {
	// A one-region view runs the prefetch ring at any size; New
	// would run a table this small in direct mode.
	tbl := dramhit.NewView(dramhit.Config{Slots: 1 << 16},
		dramhit.Regions{Arrays: []*slotarr.Array{slotarr.New(1 << 16)}, Side: new(slotarr.SidePair)})
	c := NewDRAMHiTCounter(tbl.NewHandle(), 16)
	// Warmup: populate the hot keys, grow the merged-node arena to its
	// steady-state size, and exercise every batch-flush path once.
	for i := 0; i < 10_000; i++ {
		c.Count(uint64(1 + i%64))
	}
	c.Flush()
	var k uint64
	if avg := testing.AllocsPerRun(2000, func() {
		c.Count(1 + k%64)
		k++
	}); avg != 0 {
		t.Fatalf("Count allocates %.2f per op in steady state, want 0", avg)
	}
	c.Flush()
}

// TestCHTKCCounterZeroAllocSteadyState is the same pin for the chained
// baseline: the coalescing window is two fixed arrays and the node pool
// only allocates when a block of 4096 fresh keys is exhausted, so counting
// resident keys allocates nothing.
func TestCHTKCCounterZeroAllocSteadyState(t *testing.T) {
	c := NewCHTKCCounter(chtkc.New(1 << 12))
	for i := 0; i < 10_000; i++ {
		c.Count(uint64(1 + i%64))
	}
	c.Flush()
	var k uint64
	if avg := testing.AllocsPerRun(2000, func() {
		c.Count(1 + k%64)
		k++
	}); avg != 0 {
		t.Fatalf("Count allocates %.2f per op in steady state, want 0", avg)
	}
}
