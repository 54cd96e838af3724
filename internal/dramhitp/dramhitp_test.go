package dramhitp

import (
	"sync"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
	"dramhit/internal/workload"
)

func newTestTable(n uint64) *Table {
	t := New(Config{
		Slots:                 n,
		Producers:             32, // headroom for conformance clones
		Consumers:             2,
		PartitionsPerConsumer: 2,
	})
	t.Start()
	return t
}

func TestConformance(t *testing.T) {
	tabletest.Run(t, "DRAMHiT-P", func(n uint64) table.Map {
		return newTestTable(n).NewSync()
	}, tabletest.LooseCapacity())
}

// TestConformanceSIMD runs the suite through the line-wide SWAR probe over
// nine partitions, whose sizes are rarely a multiple of the four-slot line:
// probes enter lines mid-way and wrap inside a partition's tail line.
func TestConformanceSIMD(t *testing.T) {
	tabletest.Run(t, "DRAMHiT-P-SIMD", func(n uint64) table.Map {
		tbl := New(Config{
			Slots:                 n,
			Producers:             32, // headroom for conformance clones
			Consumers:             3,
			PartitionsPerConsumer: 3,
		})
		tbl.Start()
		return tbl.NewSync()
	}, tabletest.LooseCapacity())
}

func TestPartitionMapping(t *testing.T) {
	tbl := New(Config{Slots: 4096, Producers: 1, Consumers: 4, PartitionsPerConsumer: 3})
	if tbl.Partitions() != 12 {
		t.Fatalf("partitions = %d, want 12", tbl.Partitions())
	}
	// Every key must map to a valid partition and owner, and the owner
	// assignment must be round-robin.
	for _, k := range workload.UniqueKeys(1, 10000) {
		part, local := tbl.locate(k)
		if part >= 12 {
			t.Fatalf("partition %d out of range", part)
		}
		if local >= tbl.partSlots {
			t.Fatalf("local slot %d out of range", local)
		}
		if owner := tbl.ownerOf(part); owner != int(part%4) {
			t.Fatalf("owner of partition %d = %d", part, owner)
		}
	}
	tbl.Start()
	tbl.Close()
}

func TestPartitionDistribution(t *testing.T) {
	// Uniform keys must spread across partitions roughly evenly.
	tbl := New(Config{Slots: 1 << 16, Producers: 1, Consumers: 4, PartitionsPerConsumer: 2})
	counts := make([]int, tbl.Partitions())
	const n = 80000
	for _, k := range workload.UniqueKeys(2, n) {
		part, _ := tbl.locate(k)
		counts[part]++
	}
	mean := n / tbl.Partitions()
	for p, c := range counts {
		if c < mean*8/10 || c > mean*12/10 {
			t.Errorf("partition %d has %d keys, mean %d", p, c, mean)
		}
	}
	tbl.Start()
	tbl.Close()
}

func TestFireAndForgetPipeline(t *testing.T) {
	// The real usage pattern: writers stream updates without barriers,
	// flush at the end, then readers verify.
	tbl := New(Config{Slots: 1 << 15, Producers: 4, Consumers: 3})
	tbl.Start()
	defer tbl.Close()

	const perWriter = 4000
	keys := workload.UniqueKeys(3, 4*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wh := tbl.NewWriteHandle()
			defer wh.Close()
			for _, k := range keys[w*perWriter : (w+1)*perWriter] {
				wh.Put(k, k^0xdead)
			}
			wh.Barrier()
		}(w)
	}
	wg.Wait()

	r := tbl.NewReadHandle()
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	r.GetBatch(keys, vals, found)
	for i, k := range keys {
		if !found[i] || vals[i] != k^0xdead {
			t.Fatalf("key %d: (%d, %v)", i, vals[i], found[i])
		}
	}
	if r.Stats().Gets != uint64(len(keys)) || r.Stats().Hits != uint64(len(keys)) {
		t.Fatalf("reader stats: gets=%d hits=%d", r.Stats().Gets, r.Stats().Hits)
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(keys))
	}
}

func TestUpsertCountingAcrossWriters(t *testing.T) {
	// Delegated upserts from many writers must aggregate exactly: the
	// single-writer-per-partition design serializes them.
	tbl := New(Config{Slots: 8192, Producers: 6, Consumers: 2})
	tbl.Start()
	defer tbl.Close()
	keys := workload.UniqueKeys(4, 64)
	const rounds = 500
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wh := tbl.NewWriteHandle()
			defer wh.Close()
			for r := 0; r < rounds; r++ {
				for _, k := range keys {
					wh.Upsert(k, 1)
				}
			}
			wh.Barrier()
		}()
	}
	wg.Wait()
	r := tbl.NewReadHandle()
	for _, k := range keys {
		if v, ok := r.Get(k); !ok || v != 6*rounds {
			t.Fatalf("count for %d = (%d, %v), want %d", k, v, ok, 6*rounds)
		}
	}
}

func TestPartitionFullFlagDeniesInserts(t *testing.T) {
	// Saturate one tiny partition; the full flag must start denying
	// producer-side sends and Dropped must grow, while other partitions
	// continue to accept.
	tbl := New(Config{Slots: 64, Producers: 1, Consumers: 2, PartitionsPerConsumer: 2})
	tbl.Start()
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	defer w.Close()

	denied := 0
	for _, k := range workload.UniqueKeys(5, 4096) {
		if !w.Put(k, 1) {
			denied++
		}
	}
	w.Barrier()
	if denied == 0 {
		t.Fatal("no insert was denied despite 64 slots and 4096 keys")
	}
	total := tbl.Len()
	if total > 64 {
		t.Fatalf("Len = %d exceeds capacity 64", total)
	}
	if total < 48 {
		t.Fatalf("Len = %d; partitions should be nearly full", total)
	}
	if tbl.Dropped() == 0 {
		t.Fatal("Dropped counter did not increase")
	}
}

func TestReadsDontBlockOnWriters(t *testing.T) {
	// Readers proceed against partitions while a writer streams updates.
	tbl := New(Config{Slots: 1 << 14, Producers: 1, Consumers: 2})
	tbl.Start()
	defer tbl.Close()
	keys := workload.UniqueKeys(6, 2000)
	w := tbl.NewWriteHandle()
	for _, k := range keys {
		w.Put(k, 5)
	}
	w.Barrier()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w.Put(keys[i%len(keys)], uint64(i))
		}
	}()
	r := tbl.NewReadHandle()
	for round := 0; round < 50; round++ {
		for _, k := range keys[:100] {
			if _, ok := r.Get(k); !ok {
				t.Error("key vanished during concurrent writes")
			}
		}
	}
	close(stop)
	wg.Wait()
	w.Close()
}

// TestWriteHandleMatchesMap: puts, deletes and upserts delegated through a
// write handle leave exactly the contents a Go map given the same stream
// holds, tombstones included.
func TestWriteHandleMatchesMap(t *testing.T) {
	tbl := New(Config{Slots: 2048, Producers: 1, Consumers: 2})
	tbl.Start()
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	ref := map[uint64]uint64{}
	keys := workload.UniqueKeys(7, 900)
	for i, k := range keys {
		w.Put(k, k+1)
		ref[k] = k + 1
		if i%7 == 0 {
			w.Delete(k)
			delete(ref, k)
		}
		if i%11 == 0 {
			w.Upsert(k, 3)
			ref[k] += 3
		}
	}
	w.Barrier()
	r := tbl.NewReadHandle()
	for _, k := range keys {
		v, ok := r.Get(k)
		if want, wok := ref[k]; v != want || ok != wok {
			t.Fatalf("key %d: (%d, %v), want (%d, %v)", k, v, ok, want, wok)
		}
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(ref))
	}
	w.Close()
}

// TestReadPipelineMatchesLoad: the read pipeline over a 61%-full table, where
// probe chains cross lines, answers every loaded key with its value and
// misses every other key.
func TestReadPipelineMatchesLoad(t *testing.T) {
	tbl := New(Config{Slots: 4096, Producers: 1, Consumers: 2})
	tbl.Start()
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	keys := workload.UniqueKeys(42, 2500)
	for _, k := range keys {
		w.Put(k, k^7)
	}
	w.Barrier()
	w.Close()

	probe := append(append([]uint64{}, keys...), workload.UniqueKeys(43, 500)...) // hits + misses
	r := tbl.NewReadHandle()
	vals := make([]uint64, len(probe))
	found := make([]bool, len(probe))
	r.GetBatch(probe, vals, found)
	for i, k := range probe {
		wantFound := i < len(keys)
		if found[i] != wantFound {
			t.Fatalf("key %d: found=%v want %v", i, found[i], wantFound)
		}
		if wantFound && vals[i] != k^7 {
			t.Fatalf("key %d: value %d want %d", i, vals[i], k^7)
		}
	}
	if s := r.Stats(); s.Reprobes == 0 {
		t.Error("no lookup crossed a line")
	}
}

func TestCloseIsIdempotentAndSafe(t *testing.T) {
	tbl := New(Config{Slots: 256, Producers: 2, Consumers: 1})
	tbl.Start()
	w := tbl.NewWriteHandle()
	w.Put(1, 2)
	w.Close()
	tbl.Close()
	tbl.Close() // second close is a no-op
}

func TestStartTwicePanics(t *testing.T) {
	tbl := New(Config{Slots: 256})
	tbl.Start()
	defer tbl.Close()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	tbl.Start()
}

func TestTooManyWriteHandlesPanics(t *testing.T) {
	tbl := New(Config{Slots: 256, Producers: 1, Consumers: 1})
	tbl.Start()
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	defer w.Close()
	defer func() {
		if recover() == nil {
			t.Error("excess NewWriteHandle did not panic")
		}
	}()
	tbl.NewWriteHandle()
}

// TestBarrierDrainsOwnerRing: an owner holds up to a window of updates in its
// ring, so three Puts sit there undrained until something flushes it. A
// Barrier must be that flush: once it returns, every Get sees all three.
func TestBarrierDrainsOwnerRing(t *testing.T) {
	tbl := New(Config{Slots: 1 << 12, Producers: 1, Consumers: 1, PrefetchWindow: 16})
	tbl.Start()
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	defer w.Close()
	r := tbl.NewReadHandle()
	keys := workload.UniqueKeys(8, 300)
	for i := 0; i < len(keys); i += 3 {
		for _, k := range keys[i : i+3] {
			w.Put(k, k+1)
		}
		w.Barrier()
		for _, k := range keys[i : i+3] {
			if v, ok := r.Get(k); !ok || v != k+1 {
				t.Fatalf("after the barrier of Puts %d-%d: Get(%d) = (%d, %v)", i, i+2, k, v, ok)
			}
		}
	}
}
