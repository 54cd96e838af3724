package dramhit

import (
	"fmt"
	"testing"

	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// BenchmarkExecutionBySize is the evidence for New's size rule (runsDirect):
// the prefetch ring and direct mode over the same half-full slot array, for
// uniform Gets, uniform Upserts and zipf-0.99 Upserts of loaded keys, at 2^15
// to 2^20 slots (512 KiB to 16 MiB of slot array) and at 2^25 (512 MiB, the
// tbl-get-dram table). One handle sends batches of 256 requests, each a
// Submit and a Flush, as tbl-upsert-hot does; ns/op is per request.
//
// Both modes run over one array per size, each through a view that names its
// mode, so the two see the same slots, and the filter
// 'ExecutionBySize/.*/.*/ring$' (or direct$) runs one mode alone. A 2^25 array is
// loaded in about two seconds, once per process.
func BenchmarkExecutionBySize(b *testing.B) {
	const batch = 256
	for _, logSlots := range []int{15, 16, 17, 18, 19, 20, 25} {
		slots := uint64(1) << logSlots
		var arr *slotarr.Array
		side := new(slotarr.SidePair)
		var keys []uint64
		view := func(gov table.GovernorMode) *Table {
			if arr == nil {
				arr = slotarr.New(slots)
				keys = workload.UniqueKeys(int64(logSlots), int(slots/2))
				NewView(Config{Slots: slots}, Regions{Arrays: []*slotarr.Array{arr}, Side: side}).
					NewHandle().PutBatch(keys, make([]uint64, len(keys)))
			}
			return NewView(Config{Slots: slots, Governor: gov}, Regions{Arrays: []*slotarr.Array{arr}, Side: side})
		}
		for _, mix := range []struct {
			name  string
			op    table.Op
			theta float64
		}{
			{"get-uniform", table.Get, 0},
			{"upsert-uniform", table.Upsert, 0},
			{"upsert-zipf0.99", table.Upsert, 0.99},
		} {
			for _, mode := range []struct {
				name string
				gov  table.GovernorMode
			}{{"ring", table.GovernorOff}, {"direct", table.GovernorDirect}} {
				name := fmt.Sprintf("slots=2^%d/%s/%s", logSlots, mix.name, mode.name)
				b.Run(name, func(b *testing.B) {
					h := view(mode.gov).NewHandle()
					ranks := workload.NewRankStream(int64(logSlots)+7, uint64(len(keys)), mix.theta)
					stream := make([]uint64, 1<<20)
					for i := range stream {
						stream[i] = keys[ranks.Next()]
					}
					reqs := make([]table.Request, batch)
					resps := make([]table.Response, batch)
					b.ResetTimer()
					for done := 0; done < b.N; done += batch {
						for j := range reqs {
							p := (done + j) & (len(stream) - 1)
							reqs[j] = table.Request{Op: mix.op, Key: stream[p], Value: 1, ID: uint64(p)}
						}
						nresp := 0
						for rem := reqs; len(rem) > 0; {
							n, nr := h.Submit(rem, resps[nresp:])
							rem, nresp = rem[n:], nresp+nr
						}
						for {
							nr, ok := h.Flush(resps[nresp:])
							nresp += nr
							if ok {
								break
							}
						}
					}
				})
			}
		}
		arr, keys = nil, nil
	}
}
