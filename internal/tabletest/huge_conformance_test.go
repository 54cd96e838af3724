package tabletest_test

import (
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestHugeTableConformance runs the shared suite once per layout on tables
// whose index is at least 2^20 slots: 16 MiB of slot words, 9.1 MiB of bucket
// words — past hugemem.Threshold, so the index is aligned, filled in parallel
// chunks and collapsed into huge pages, which no other suite's table size
// reaches. The capacity the suite asks for is a floor here, hence
// LooseCapacity.
func TestHugeTableConformance(t *testing.T) {
	const slots = 1 << 20
	for _, c := range []struct {
		name   string
		layout table.Layout
	}{{"HugeFlat", table.LayoutFlat}, {"HugeBucket", table.LayoutBucket}} {
		tabletest.Run(t, c.name, func(n uint64) table.Map {
			return dramhit.New(dramhit.Config{Slots: max(n, slots), Layout: c.layout}).NewSync()
		}, tabletest.LooseCapacity())
	}
}
