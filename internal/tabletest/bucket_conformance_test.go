package tabletest_test

import (
	"sync"
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/dramhitp"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
)

// TestBucketConformance runs the shared suite against the bucket layout at
// every level of the stack: the raw slotarr engine through its uint64 view,
// and the byte API of the core dramhit table and of the partitioned table
// with bucket partitions (tabletest.ByteMap: 8-byte keys and values). All
// three grow on demand (LooseCapacity), and the concurrent subtests race
// handle clones against the engine's resizes.
func TestBucketConformance(t *testing.T) {
	tabletest.Run(t, "Bucket",
		func(n uint64) table.Map { return slotarr.NewBucketMap(n) },
		tabletest.LooseCapacity())
	tabletest.Run(t, "DramhitBucket",
		func(n uint64) table.Map { return dramhitBytes(n) },
		tabletest.LooseCapacity())
	tabletest.Run(t, "DramhitPBucket",
		func(n uint64) table.Map {
			tb := dramhitp.New(dramhitp.Config{
				// Producers sized for the suite's widest concurrent subtest:
				// every goroutine's Clone claims a write endpoint.
				Slots: n, Producers: 16, Consumers: 2, Layout: table.LayoutBucket,
			})
			return pBytes{tabletest.NewByteMap(func() tabletest.ByteAPI {
				return pHandles{tb.NewWriteHandle(), tb.NewReadHandle()}
			}, tb.Len, tb.Cap), tb}
		},
		tabletest.LooseCapacity())
}

// dramhitBytes is a dramhit bucket table of n slots behind its byte API.
func dramhitBytes(n uint64) *tabletest.ByteMap {
	tb := dramhit.New(dramhit.Config{Slots: n, Layout: table.LayoutBucket})
	return tabletest.NewByteMap(func() tabletest.ByteAPI { return tb.NewHandle() }, tb.Len, tb.Cap)
}

// pHandles is one goroutine's byte API on a partitioned bucket table: writes
// through a WriteHandle, reads through a ReadHandle.
type pHandles struct {
	*dramhitp.WriteHandle
	*dramhitp.ReadHandle
}

// pBytes closes the partitioned table when the suite's subtest ends.
type pBytes struct {
	*tabletest.ByteMap
	tb *dramhitp.Table
}

func (m pBytes) Shutdown() { m.tb.Close() }

// TestBucketStashChains pins the overflow path: one bucket with growth
// disabled has seven lanes, so all but seven of the inserts must land on the
// stash chain — and every operation must keep working there, sequentially
// and under concurrent same-chain hammering.
func TestBucketStashChains(t *testing.T) {
	bt := slotarr.NewBucketTable(slotarr.BucketConfig{Buckets: 1, MaxLoad: 1 << 30})
	m := slotarr.NewBucketMapOf(bt)
	const n = 200
	for k := uint64(0); k < n; k++ {
		m.Put(k, k*7)
	}
	if g := bt.Grows(); g != 0 {
		t.Fatalf("growth-disabled table grew %d times", g)
	}
	if s := bt.Stashed(); s < n-slotarr.BucketLanes {
		t.Fatalf("Stashed = %d, want >= %d", s, n-slotarr.BucketLanes)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := m.Get(k); !ok || v != k*7 {
			t.Fatalf("Get(%d) = (%d, %v) on the stash chain", k, v, ok)
		}
	}
	// Deletes, upserts and re-inserts all down the chain.
	for k := uint64(0); k < n; k += 2 {
		if !m.Delete(k) {
			t.Fatalf("Delete(%d) missed on the stash chain", k)
		}
	}
	for k := uint64(1); k < n; k += 2 {
		if v, _ := m.Upsert(k, 1); v != k*7+1 {
			t.Fatalf("Upsert(%d) = %d, want %d", k, v, k*7+1)
		}
	}
	for k := uint64(0); k < n; k += 2 {
		m.Put(k, k)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	// Concurrent clones fight over one chain: the per-key upsert counts must
	// still be exact (the engine's CAS republish serializes them).
	const g, per = 6, 450 // per divisible by 9: every key gets exactly per/9
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mm := m.Clone()
			for j := 0; j < per; j++ {
				mm.Upsert(uint64(j%9), 1)
			}
		}()
	}
	wg.Wait()
	for k := uint64(0); k < 9; k++ {
		want := k + g*per/9
		if k%2 == 1 {
			want = k*7 + 1 + g*per/9
		}
		if v, ok := m.Get(k); !ok || v != want {
			t.Fatalf("after concurrent upserts, Get(%d) = (%d, %v), want %d", k, v, ok, want)
		}
	}
}

// TestBucketFlatBitIdentical drives a flat dramhit table's Sync adapter and a
// bucket dramhit table's byte API (8-byte keys and values) through one
// deterministic mixed stream and requires the same response to every single
// operation — the layouts are two physical encodings of one abstract map.
func TestBucketFlatBitIdentical(t *testing.T) {
	flat := dramhit.New(dramhit.Config{Slots: 1 << 12}).NewSync()
	bkt := dramhitBytes(64)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
	for i := 0; i < 20000; i++ {
		k := next() % 600
		switch next() % 5 {
		case 0:
			v := next()
			if pf, pb := flat.Put(k, v), bkt.Put(k, v); pf != pb {
				t.Fatalf("op %d: Put(%d) diverged: flat %v, bucket %v", i, k, pf, pb)
			}
		case 1:
			vf, of := flat.Upsert(k, 3)
			vb, ob := bkt.Upsert(k, 3)
			if vf != vb || of != ob {
				t.Fatalf("op %d: Upsert(%d) diverged: flat (%d,%v), bucket (%d,%v)", i, k, vf, of, vb, ob)
			}
		case 2:
			if df, db := flat.Delete(k), bkt.Delete(k); df != db {
				t.Fatalf("op %d: Delete(%d) diverged: flat %v, bucket %v", i, k, df, db)
			}
		default:
			vf, of := flat.Get(k)
			vb, ob := bkt.Get(k)
			if vf != vb || of != ob {
				t.Fatalf("op %d: Get(%d) diverged: flat (%d,%v), bucket (%d,%v)", i, k, vf, of, vb, ob)
			}
		}
		if flat.Len() != bkt.Len() {
			t.Fatalf("op %d: Len diverged: flat %d, bucket %d", i, flat.Len(), bkt.Len())
		}
	}
}
