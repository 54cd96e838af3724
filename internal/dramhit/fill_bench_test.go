package dramhit

import (
	"testing"

	"dramhit/internal/workload"
)

// BenchmarkFillSweep measures pipelined Gets as the table fills: at low fill
// nearly every probe resolves in its home slot (the drains' entry-lane peek,
// one load), and cluster walks through the lane-parallel compare appear only
// at the higher fills. The fixed key seed keeps runs benchstat-comparable.
func BenchmarkFillSweep(b *testing.B) {
	const size = 1 << 20
	for _, fill := range []struct {
		name string
		num  int
	}{{"f50", size / 2}, {"f75", size * 3 / 4}, {"f875", size * 7 / 8}, {"f94", size * 15 / 16}} {
		b.Run(fill.name, func(b *testing.B) {
			tbl := New(Config{Slots: size})
			h := tbl.NewHandle()
			keys := workload.UniqueKeys(21, fill.num)
			vals := make([]uint64, len(keys))
			h.PutBatch(keys, vals)
			found := make([]bool, len(keys))
			b.ResetTimer()
			for done := 0; done < b.N; done += len(keys) {
				n := len(keys)
				if b.N-done < n {
					n = b.N - done
				}
				h.GetBatch(keys[:n], vals[:n], found[:n])
			}
		})
	}
}
