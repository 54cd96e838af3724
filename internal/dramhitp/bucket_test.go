package dramhitp

import (
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

func newBucketTableP(slots uint64, consumers int) *Table {
	t := New(Config{
		Slots:     slots,
		Producers: 2,
		Consumers: consumers,
		Layout:    table.LayoutBucket,
	})
	t.Start()
	return t
}

// TestPBucketDelegatedOps drives delegated uint64 updates and direct reads
// through bucket partitions, including reserved keys (ordinary here) and
// enough inserts to force partition resizes.
func TestPBucketDelegatedOps(t *testing.T) {
	tb := newBucketTableP(64, 2) // tiny partitions: inserts force growth
	defer tb.Close()
	if tb.Layout() != table.LayoutBucket {
		t.Fatal("table does not report LayoutBucket")
	}
	w := tb.NewWriteHandle()
	r := tb.NewReadHandle()
	keys := workload.UniqueKeys(11, 3000)
	for _, k := range keys {
		if !w.Put(k, k^0xbeef) {
			t.Fatalf("bucket Put(%d) denied — partitions must never be full", k)
		}
	}
	for _, k := range []uint64{table.EmptyKey, table.TombstoneKey, table.MovedKey} {
		w.Put(k, k+5)
	}
	w.Barrier()
	if tb.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 on the self-resizing layout", tb.Dropped())
	}
	for _, k := range keys {
		if v, ok := r.Get(k); !ok || v != k^0xbeef {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	for _, k := range []uint64{table.EmptyKey, table.TombstoneKey, table.MovedKey} {
		if v, ok := r.Get(k); !ok || v != k+5 {
			t.Fatalf("reserved Get(%#x) = (%d, %v)", k, v, ok)
		}
	}
	if tb.Len() != len(keys)+3 {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(keys)+3)
	}
	// Upserts fold through delegation to an exact count.
	for i := 0; i < 10; i++ {
		w.Upsert(keys[0], 1)
	}
	w.Barrier()
	if v, _ := r.Get(keys[0]); v != (keys[0]^0xbeef)+10 {
		t.Fatalf("after 10 upserts, value = %d", v)
	}
	w.Delete(keys[1])
	w.Barrier()
	if _, ok := r.Get(keys[1]); ok {
		t.Fatal("deleted key still present")
	}
	if rs := r.Stats(); rs.KeyLines == 0 {
		t.Fatal("bucket reads did not fold engine lines into KeyLines")
	} else if rs.TagSkips != 0 || rs.TagHits != 0 {
		t.Fatal("bucket reads advanced sidecar counters that cannot exist")
	}
}

// TestPBucketPipelinedReads checks the prefetch-ring read path (Submit/
// Flush with ID scatter) against bucket partitions, piggybacking included.
func TestPBucketPipelinedReads(t *testing.T) {
	tb := newBucketTableP(4096, 2)
	defer tb.Close()
	w := tb.NewWriteHandle()
	keys := workload.UniqueKeys(23, 1000)
	for _, k := range keys {
		w.Put(k, k*3)
	}
	w.Barrier()
	r := tb.NewReadHandle()
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	r.GetBatch(keys, vals, found)
	for i, k := range keys {
		if !found[i] || vals[i] != k*3 {
			t.Fatalf("GetBatch[%d] = (%d, %v), want (%d, true)", i, vals[i], found[i], k*3)
		}
	}
	// A same-key burst exercises piggybacking over the bucket drain.
	burst := make([]uint64, 32)
	for i := range burst {
		burst[i] = keys[7]
	}
	bv := make([]uint64, len(burst))
	bf := make([]bool, len(burst))
	r.GetBatch(burst, bv, bf)
	for i := range burst {
		if !bf[i] || bv[i] != keys[7]*3 {
			t.Fatalf("burst[%d] = (%d, %v)", i, bv[i], bf[i])
		}
	}
	if r.Stats().PiggybackedGets == 0 {
		t.Fatal("same-key burst piggybacked nothing")
	}
}

// TestPBucketByteAPI exercises the byte-string surface: synchronous writes
// through the WriteHandle, reads through the ReadHandle, across partitions.
func TestPBucketByteAPI(t *testing.T) {
	tb := newBucketTableP(1024, 2)
	defer tb.Close()
	w := tb.NewWriteHandle()
	r := tb.NewReadHandle()
	kv := map[string]string{
		"gene:BRCA2":        "chr13",
		"k":                 "",
		"a-much-longer-key": "with a much longer value than eight bytes",
	}
	for k, v := range kv {
		if w.PutBytes([]byte(k), []byte(v)) {
			t.Fatalf("fresh byte key %q reported existing", k)
		}
	}
	for k, v := range kv {
		got, ok := r.GetBytes([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("GetBytes(%q) = (%q, %v), want (%q, true)", k, got, ok, v)
		}
	}
	w.UpsertBytes([]byte("k"), func(old []byte, present bool) []byte {
		if !present {
			t.Fatal("UpsertBytes missed an existing key")
		}
		return append(append([]byte(nil), old...), 'x')
	})
	if got, _ := r.GetBytes([]byte("k")); string(got) != "x" {
		t.Fatalf("after mutate, value = %q", got)
	}
	if !w.DeleteBytes([]byte("gene:BRCA2")) {
		t.Fatal("DeleteBytes of present key reported absent")
	}
	if _, ok := r.GetBytes([]byte("gene:BRCA2")); ok {
		t.Fatal("deleted byte key still present")
	}
}

// TestPBucketByteAPIRequiresLayout pins the flat-table panic contract.
func TestPBucketByteAPIRequiresLayout(t *testing.T) {
	tb := New(Config{Slots: 64, Producers: 1, Consumers: 1})
	tb.Start()
	defer tb.Close()
	w := tb.NewWriteHandle()
	defer func() {
		if recover() == nil {
			t.Fatal("byte API on a flat table did not panic")
		}
	}()
	w.PutBytes([]byte("k"), []byte("v"))
}

// TestPBucketSyncConformsSequentially smoke-checks the Sync adapter on the
// bucket layout against a reference map (the full conformance suite runs
// from tabletest).
func TestPBucketSyncConformsSequentially(t *testing.T) {
	tb := newBucketTableP(512, 2)
	s := tb.NewSync()
	defer s.Shutdown()
	ref := make(map[uint64]uint64)
	for i := 0; i < 4000; i++ {
		k := uint64(i % 97)
		switch i % 5 {
		case 0, 1:
			v := uint64(i)
			s.Put(k, v)
			ref[k] = v
		case 2:
			got, ok := s.Upsert(k, 2)
			ref[k] += 2
			if !ok || got != ref[k] {
				t.Fatalf("op %d: Upsert(%d) = (%d, %v), want %d", i, k, got, ok, ref[k])
			}
		case 3:
			_, want := ref[k]
			if got := s.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		default:
			got, ok := s.Get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d, %v), want (%d, %v)", i, k, got, ok, want, wok)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference %d", i, s.Len(), len(ref))
		}
	}
}
