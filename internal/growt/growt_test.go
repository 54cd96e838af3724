package growt

import (
	"sync"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
	"dramhit/internal/workload"
)

func TestConformance(t *testing.T) {
	// A resizing table never reports full, so the tight-capacity tests do
	// not apply.
	tabletest.Run(t, "Growt", func(n uint64) table.Map { return New(n) },
		tabletest.LooseCapacity())
}

func TestGrowsPastInitialCapacity(t *testing.T) {
	m := New(16)
	keys := workload.UniqueKeys(1, 10_000)
	for _, k := range keys {
		if !m.Put(k, k^1) {
			t.Fatal("Put failed on resizable table")
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(keys))
	}
	if m.Grows() == 0 {
		t.Fatal("no resize happened")
	}
	if m.Cap() < len(keys) {
		t.Fatalf("Cap %d below live entries %d", m.Cap(), m.Len())
	}
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k^1 {
			t.Fatalf("key lost across resizes: (%d, %v)", v, ok)
		}
	}
}

func TestFillStaysBounded(t *testing.T) {
	m := New(64)
	for _, k := range workload.UniqueKeys(2, 5000) {
		m.Put(k, 1)
	}
	if f := m.Fill(); f > DefaultMaxFill+0.01 {
		t.Errorf("fill %.2f exceeds threshold", f)
	}
}

func TestTombstonesReclaimedOnResize(t *testing.T) {
	m := New(64)
	// Churn: insert and delete so tombstones accumulate and force growth
	// even though live count stays small.
	keys := workload.UniqueKeys(3, 20_000)
	for i, k := range keys {
		m.Put(k, 1)
		if i >= 8 {
			m.Delete(keys[i-8]) // keep ~8 live
		}
	}
	if m.Len() != 8 {
		t.Fatalf("Len = %d, want 8", m.Len())
	}
	// Tombstones evaporate at each resize, so capacity stays modest
	// despite 20K claimed-and-deleted slots.
	if m.Cap() > 256 {
		t.Errorf("cap %d after churn; tombstones apparently migrated", m.Cap())
	}
	for _, k := range keys[len(keys)-8:] {
		if _, ok := m.Get(k); !ok {
			t.Fatal("live key lost in churn")
		}
	}
}

func TestUpsertAcrossResizes(t *testing.T) {
	m := New(16)
	keys := workload.UniqueKeys(4, 300)
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			m.Upsert(k, 1)
		}
	}
	for _, k := range keys {
		if v, _ := m.Get(k); v != rounds {
			t.Fatalf("count %d, want %d", v, rounds)
		}
	}
}

func TestConcurrentGrowth(t *testing.T) {
	m := New(32)
	const g, perG = 8, 3000
	keys := workload.UniqueKeys(5, g*perG)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, k := range keys[w*perG : (w+1)*perG] {
				m.Put(k, k+3)
			}
		}(w)
	}
	wg.Wait()
	// Keys before Len: a lost key is the failure that matters, and Len alone
	// cannot tell it from a miscounted one.
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k+3 {
			t.Fatalf("lost key during concurrent growth: (%d, %v)", v, ok)
		}
	}
	if m.Len() != g*perG {
		t.Fatalf("Len = %d, want %d", m.Len(), g*perG)
	}
	if m.Grows() == 0 {
		t.Fatal("expected growth")
	}
}

func TestConcurrentReadersDuringGrowth(t *testing.T) {
	m := New(32)
	seed := workload.UniqueKeys(6, 100)
	for _, k := range seed {
		m.Put(k, k)
	}
	stop := make(chan struct{})
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range seed {
				if v, ok := m.Get(k); !ok || v != k {
					t.Errorf("seed key corrupted during growth: (%d, %v)", v, ok)
					return
				}
			}
		}
	}()
	for _, k := range workload.UniqueKeys(7, 20_000) {
		m.Put(k, 1)
	}
	close(stop)
	readerWg.Wait()
}

func TestRangeVisitsEverything(t *testing.T) {
	// folklore.Range via growt's migration is implicitly tested above;
	// check it directly through a migration cycle with reserved keys.
	m := New(16)
	m.Put(table.EmptyKey, 11)
	m.Put(table.TombstoneKey, 22)
	for _, k := range workload.UniqueKeys(8, 500) {
		m.Put(k, 9)
	}
	if v, ok := m.Get(table.EmptyKey); !ok || v != 11 {
		t.Fatalf("reserved key lost in migration: (%d, %v)", v, ok)
	}
	if v, ok := m.Get(table.TombstoneKey); !ok || v != 22 {
		t.Fatalf("reserved key lost in migration: (%d, %v)", v, ok)
	}
}

func BenchmarkPutWithGrowth(b *testing.B) {
	m := New(64)
	keys := workload.UniqueKeys(9, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(keys[i], 1)
	}
}

func BenchmarkGetStable(b *testing.B) {
	m := New(1 << 16)
	keys := workload.UniqueKeys(10, 1<<15)
	for _, k := range keys {
		m.Put(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i&(1<<15-1)])
	}
}
