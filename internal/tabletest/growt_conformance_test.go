package tabletest_test

import (
	"testing"

	"dramhit/internal/growt"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestGrowtConformance runs the shared conformance suite against the
// resizing table: the default chunk size, and a variant with one-slot
// chunks — the finest-grained helping schedule, so any resize the suite
// provokes opens the longest possible window for the concurrent subtests to
// race against.
// LooseCapacity applies because a resizing table never reports full.
// (Growth under sustained concurrent load is exercised separately by the
// growt package's own tests, the cross-implementation check, and
// FuzzTableOps, all of which start the table far below their key counts.)
func TestGrowtConformance(t *testing.T) {
	tabletest.Run(t, "GrowtIncremental",
		func(n uint64) table.Map { return growt.New(n) },
		tabletest.LooseCapacity())
	tabletest.Run(t, "GrowtChunk1",
		func(n uint64) table.Map {
			return growt.New(n, growt.WithChunkSlots(1))
		},
		tabletest.LooseCapacity())
}
