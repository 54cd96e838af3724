package tabletest_test

import (
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestHugeTableConformance runs the shared suite once per layout — each
// through the API it serves — on tables whose index is at least 2^20 slots:
// 16 MiB of slot words, 9.1 MiB of bucket words — past hugemem.Threshold, so
// the index is aligned, filled in parallel chunks and collapsed into huge
// pages, which no other suite's table size reaches. The capacity the suite
// asks for is a floor here, hence LooseCapacity.
func TestHugeTableConformance(t *testing.T) {
	const slots = 1 << 20
	tabletest.Run(t, "HugeFlat", func(n uint64) table.Map {
		return dramhit.New(dramhit.Config{Slots: max(n, slots)}).NewSync()
	}, tabletest.LooseCapacity())
	tabletest.Run(t, "HugeBucket", func(n uint64) table.Map {
		return dramhitBytes(max(n, slots))
	}, tabletest.LooseCapacity())
}
