package dramhitp

import (
	"sync"
	"testing"

	"dramhit/internal/workload"
)

func benchTable(b *testing.B, producers, consumers int) *Table {
	b.Helper()
	t := New(Config{
		Slots:     1 << 20,
		Producers: producers,
		Consumers: consumers,
	})
	t.Start()
	b.Cleanup(t.Close)
	return t
}

// delegatedCase is one cell of the owner-path matrix: one producer writes
// through one owner into a table of 1<<logSlots slots, DRAM-resident at
// 2^25 and cache-resident at 2^17, drawing keys over half of the slots,
// uniformly (theta 0) or zipf-skewed. Run it at -cpu 2, one goroutine each.
type delegatedCase struct {
	name     string
	logSlots int
	theta    float64
}

var delegatedCases = []delegatedCase{
	{"slots=2^25/uniform", 25, 0},
	{"slots=2^25/zipf=0.99", 25, 0.99},
	{"slots=2^17/uniform", 17, 0},
	{"slots=2^17/zipf=0.99", 17, 0.99},
}

// delegatedKeys memoizes each case's key stream: 2^22 draws, enough that a
// run of a few million operations does not cycle back into warm lines.
var delegatedKeys = map[[2]float64][]uint64{}

func (c delegatedCase) keys() []uint64 {
	id := [2]float64{float64(c.logSlots), c.theta}
	if k, ok := delegatedKeys[id]; ok {
		return k
	}
	s := workload.NewKeyStream(int64(c.logSlots), 1<<c.logSlots/2, c.theta)
	k := make([]uint64, 1<<22)
	for i := range k {
		k[i] = s.Next()
	}
	delegatedKeys[id] = k
	return k
}

// run times b.N writes through one WriteHandle and the Barrier that has the
// owner apply the last of them.
func (c delegatedCase) run(b *testing.B, write func(w *WriteHandle, key uint64, i int)) {
	keys := c.keys()
	t := New(Config{Slots: 1 << c.logSlots, Producers: 1, Consumers: 1})
	t.Start()
	defer t.Close()
	w := t.NewWriteHandle()
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(w, keys[i&(len(keys)-1)], i)
	}
	w.Barrier()
	b.StopTimer()
}

func BenchmarkDelegatedUpsert(b *testing.B) {
	for _, c := range delegatedCases {
		b.Run(c.name, func(b *testing.B) {
			c.run(b, func(w *WriteHandle, key uint64, _ int) { w.Upsert(key, 1) })
		})
	}
}

func BenchmarkDelegatedPutSkewed(b *testing.B) {
	for _, c := range delegatedCases {
		b.Run(c.name, func(b *testing.B) {
			c.run(b, func(w *WriteHandle, key uint64, i int) { w.Put(key, uint64(i)) })
		})
	}
}

func BenchmarkDirectRead(b *testing.B) {
	t := benchTable(b, 1, 2)
	w := t.NewWriteHandle()
	keys := workload.UniqueKeys(3, 1<<14)
	for _, k := range keys {
		w.Put(k, k)
	}
	w.Barrier()
	w.Close()
	r := t.NewReadHandle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get(keys[i&(1<<14-1)])
	}
}

func BenchmarkPipelinedReadBatch(b *testing.B) {
	t := benchTable(b, 1, 2)
	w := t.NewWriteHandle()
	keys := workload.UniqueKeys(4, 1<<14)
	for _, k := range keys {
		w.Put(k, k)
	}
	w.Barrier()
	w.Close()
	r := t.NewReadHandle()
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	b.ResetTimer()
	for done := 0; done < b.N; done += len(keys) {
		n := len(keys)
		if b.N-done < n {
			n = b.N - done
		}
		r.GetBatch(keys[:n], vals[:n], found[:n])
	}
}

func BenchmarkMultiWriterUpsert(b *testing.B) {
	const writers = 4
	t := benchTable(b, writers, 2)
	keys := workload.UniqueKeys(5, 1<<12)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / writers
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := t.NewWriteHandle()
			defer w.Close()
			for i := 0; i < per; i++ {
				w.Upsert(keys[i&(1<<12-1)], 1)
			}
			w.Barrier()
		}()
	}
	wg.Wait()
}
