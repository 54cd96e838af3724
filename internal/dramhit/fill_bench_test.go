package dramhit

import (
	"fmt"
	"runtime"
	"sync"
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

// BenchmarkBulkLoad is a bulk load — PutBatch of distinct keys into a
// 2^22-slot table (64 MiB, past the caches) — by one handle and by two, each
// on its own goroutine: the shape of a two-loader preload. Every handle puts
// b.N keys, so ns/put is per handle, and two handles that share no written
// line read about what one does. The table is rebuilt, untimed, before a
// round would fill it past 75%.
func BenchmarkBulkLoad(b *testing.B) {
	const slots = 1 << 22
	for _, handles := range []int{1, 2} {
		b.Run(fmt.Sprintf("handles=%d", handles), func(b *testing.B) {
			round := slots * 3 / 4 / handles
			keys := workload.UniqueKeys(5, round*handles)
			vals := make([]uint64, round)
			b.ResetTimer()
			for done := 0; done < b.N; done += round {
				n := min(round, b.N-done)
				b.StopTimer()
				runtime.GC()
				tbl := New(Config{Slots: slots})
				hs := make([]*Handle, handles)
				for i := range hs {
					hs[i] = tbl.NewHandle()
				}
				b.StartTimer()
				var wg sync.WaitGroup
				for i, h := range hs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						h.PutBatch(keys[i*round:][:n], vals[:n])
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/put")
		})
	}
}
