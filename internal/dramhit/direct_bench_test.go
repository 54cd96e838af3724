package dramhit

import (
	"testing"

	"dramhit/internal/folklore"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// directBenchSetup loads a half-full direct-mode table and a folklore table
// with identical content, and returns a zipf key stream — the cache-resident
// shape where the folklore execution model historically beat the pipeline
// and direct mode has to compete.
func directBenchSetup(b *testing.B, slots uint64) (*Handle, *folklore.Table, []uint64) {
	b.Helper()
	t := New(Config{Slots: slots, Governor: table.GovernorDirect})
	h := t.NewHandle()
	f := folklore.New(slots)
	keys := workload.UniqueKeys(42, int(slots/2))
	for _, k := range keys {
		f.Put(k, k)
	}
	vals := make([]uint64, len(keys))
	copy(vals, keys)
	h.PutBatch(keys, vals)
	ks := workload.NewKeyStream(7, uint64(len(keys)), 0.99)
	stream := make([]uint64, 1<<16)
	for i := range stream {
		stream[i] = keys[ks.Next()%uint64(len(keys))]
	}
	return h, f, stream
}

// BenchmarkDirectVsFolklore/direct vs /folklore is the folklore-gap
// microscope: identical zipf(0.99) get streams through direct mode's
// synchronous inline path (batch 16, Submit interface) and through
// folklore's bare synchronous calls.
func BenchmarkDirectVsFolklore(b *testing.B) {
	const slots = 1 << 20
	b.Run("direct", func(b *testing.B) {
		h, _, stream := directBenchSetup(b, slots)
		reqs := make([]table.Request, 16)
		resps := make([]table.Response, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i += 16 {
			for j := 0; j < 16; j++ {
				reqs[j] = table.Request{Op: table.Get, Key: stream[(i+j)&(len(stream)-1)], ID: uint64(j)}
			}
			rem := reqs
			for len(rem) > 0 {
				nr, _ := h.Submit(rem, resps)
				rem = rem[nr:]
			}
		}
	})
	b.Run("folklore", func(b *testing.B) {
		_, f, stream := directBenchSetup(b, slots)
		b.ResetTimer()
		var sink uint64
		for i := 0; i < b.N; i++ {
			v, _ := f.Get(stream[i&(len(stream)-1)])
			sink += v
		}
		_ = sink
	})
}
