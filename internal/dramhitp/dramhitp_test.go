package dramhitp

import (
	"sync"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
	"dramhit/internal/workload"
)

func newTestTable(n uint64, kernel table.ProbeKernel) *Table {
	t := New(Config{
		Slots:                 n,
		Producers:             32, // headroom for conformance clones
		Consumers:             2,
		PartitionsPerConsumer: 2,
		ProbeKernel:           kernel,
	})
	t.Start()
	return t
}

func TestConformance(t *testing.T) {
	tabletest.Run(t, "DRAMHiT-P", func(n uint64) table.Map {
		return newTestTable(n, table.KernelScalar).NewSync()
	}, tabletest.LooseCapacity())
}

func TestConformanceSIMD(t *testing.T) {
	tabletest.Run(t, "DRAMHiT-P-SIMD", func(n uint64) table.Map {
		return newTestTable(n, table.KernelSWAR).NewSync()
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

func TestSIMDAndScalarAgree(t *testing.T) {
	// The SIMD probe must produce the same table contents as the scalar
	// probe for the same input stream, including tombstone handling.
	mkTable := func(kernel table.ProbeKernel) *Table {
		tbl := New(Config{Slots: 2048, Producers: 1, Consumers: 2, ProbeKernel: kernel})
		tbl.Start()
		return tbl
	}
	a, b := mkTable(table.KernelScalar), mkTable(table.KernelSWAR)
	defer a.Close()
	defer b.Close()
	wa, wb := a.NewWriteHandle(), b.NewWriteHandle()
	keys := workload.UniqueKeys(7, 900)
	for i, k := range keys {
		wa.Put(k, k+1)
		wb.Put(k, k+1)
		if i%7 == 0 {
			wa.Delete(k)
			wb.Delete(k)
		}
		if i%11 == 0 {
			wa.Upsert(k, 3)
			wb.Upsert(k, 3)
		}
	}
	wa.Barrier()
	wb.Barrier()
	ra, rb := a.NewReadHandle(), b.NewReadHandle()
	for _, k := range keys {
		va, oka := ra.Get(k)
		vb, okb := rb.Get(k)
		if va != vb || oka != okb {
			t.Fatalf("divergence on key %d: scalar (%d,%v) simd (%d,%v)", k, va, oka, vb, okb)
		}
	}
	wa.Close()
	wb.Close()
}

func TestSIMDReadPipelineAgreesWithScalar(t *testing.T) {
	// The branchless read pipeline must return exactly what the scalar one
	// does, including misses and reprobe chains.
	mk := func(kernel table.ProbeKernel) (*Table, []uint64) {
		tbl := New(Config{Slots: 4096, Producers: 1, Consumers: 2, ProbeKernel: kernel})
		tbl.Start()
		w := tbl.NewWriteHandle()
		keys := workload.UniqueKeys(42, 2500) // ~61% fill: real reprobes
		for _, k := range keys {
			w.Put(k, k^7)
		}
		w.Barrier()
		w.Close()
		return tbl, keys
	}
	scalarT, keys := mk(table.KernelScalar)
	simdT, _ := mk(table.KernelSWAR)
	defer scalarT.Close()
	defer simdT.Close()

	probe := append(append([]uint64{}, keys...), workload.UniqueKeys(43, 500)...) // hits + misses
	for _, tbl := range []*Table{scalarT, simdT} {
		r := tbl.NewReadHandle()
		vals := make([]uint64, len(probe))
		found := make([]bool, len(probe))
		r.GetBatch(probe, vals, found)
		for i, k := range probe {
			wantFound := i < len(keys)
			if found[i] != wantFound {
				t.Fatalf("kernel=%v key %d: found=%v want %v", tbl.kernel, i, found[i], wantFound)
			}
			if wantFound && vals[i] != k^7 {
				t.Fatalf("kernel=%v key %d: value %d want %d", tbl.kernel, i, vals[i], k^7)
			}
		}
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
