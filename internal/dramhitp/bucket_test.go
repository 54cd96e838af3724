package dramhitp

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"dramhit/internal/dramhit"
	"dramhit/internal/table"
	"dramhit/internal/tabletest"
	"dramhit/internal/workload"
)

// TestPartitionIsOneLine: partitions owned by different consumers must not
// share a cache line through their owner-written full flags.
func TestPartitionIsOneLine(t *testing.T) {
	if n := unsafe.Sizeof(partition{}); n != table.CacheLineBytes {
		t.Fatalf("partition is %d bytes, want exactly one %d-byte cache line", n, table.CacheLineBytes)
	}
}

// TestPBucketPipelinedReads checks the byte ring (SubmitBytes/FlushBytes,
// completions by ID) against bucket partitions, a same-key burst included.
func TestPBucketPipelinedReads(t *testing.T) {
	tb := NewBytes(BytesConfig{Slots: 4096, Partitions: 2})
	w := tb.NewHandle()
	keys := workload.UniqueKeys(23, 1000)
	for _, k := range keys {
		w.PutBytes(le(k), le(k*3))
	}
	r := tb.NewHandle()
	var lookups []uint64 // key by completion ID
	r.OnByteComplete(func(c dramhit.ByteCompletion) {
		if k := lookups[c.ID]; !c.Found || !bytes.Equal(c.Value, le(k*3)) {
			t.Fatalf("lookup %d of %d = (%x, %v), want (%x, true)", c.ID, k, c.Value, c.Found, le(k*3))
		}
	})
	// All keys, then a same-key burst longer than the window.
	for i := 0; i < 32; i++ {
		keys = append(keys, keys[7])
	}
	for _, k := range keys {
		r.SubmitBytes(table.Get, uint64(len(lookups)), le(k), nil)
		lookups = append(lookups, k)
	}
	r.FlushBytes()
	if s := r.Stats(); s.Gets != uint64(len(keys)) || s.Hits != s.Gets {
		t.Fatalf("%d lookups: Stats %+v", len(keys), s)
	}
}

// TestPBucketByteAPI exercises the synchronous byte surface of the
// partitioned byte table's handles, across partitions — then enough inserts
// into tiny partitions to force them to resize, which a bucket partition
// does instead of dropping writes.
func TestPBucketByteAPI(t *testing.T) {
	tb := NewBytes(BytesConfig{Slots: 64, Partitions: 2})
	w, r := tb.NewHandle(), tb.NewHandle()
	kv := map[string]string{
		"gene:BRCA2":        "chr13",
		"k":                 "",
		"a-much-longer-key": "with a much longer value than eight bytes",
	}
	for k, v := range kv {
		if existed, ok := w.PutBytes([]byte(k), []byte(v)); existed || !ok {
			t.Fatalf("fresh byte key %q: existed %v ok %v", k, existed, ok)
		}
	}
	for k, v := range kv {
		got, ok := r.GetBytes([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("GetBytes(%q) = (%q, %v), want (%q, true)", k, got, ok, v)
		}
	}
	w.UpsertBytes([]byte("k"), func(old []byte, present bool) ([]byte, bool) {
		if !present {
			t.Fatal("UpsertBytes missed an existing key")
		}
		return append(append([]byte(nil), old...), 'x'), true
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

	capBefore := tb.Cap()
	keys := workload.UniqueKeys(11, 3000)
	for _, k := range keys {
		w.PutBytes(le(k), le(k^0xbeef))
	}
	for _, k := range keys {
		if v, ok := r.GetBytes(le(k)); !ok || !bytes.Equal(v, le(k^0xbeef)) {
			t.Fatalf("GetBytes(%d) = (%x, %v) after the partitions grew", k, v, ok)
		}
	}
	if tb.Len() != len(keys)+2 || tb.Cap() < len(keys) || capBefore >= len(keys) {
		t.Fatalf("Len %d, Cap %d (from %d) after %d inserts", tb.Len(), tb.Cap(), capBefore, len(keys)+2)
	}
	if r.Stats().KeyLines == 0 {
		t.Fatal("bucket reads did not fold engine lines into KeyLines")
	}
}

// TestPBucketSyncConformsSequentially smoke-checks a synchronous adapter on
// the byte table — tabletest.ByteMap over its handles, 8-byte keys and
// values — against a reference map (the full conformance suite runs from
// tabletest).
func TestPBucketSyncConformsSequentially(t *testing.T) {
	tb := NewBytes(BytesConfig{Slots: 512, Partitions: 2})
	s := tabletest.NewByteMap(func() tabletest.ByteAPI { return tb.NewHandle() }, tb.Len, tb.Cap)
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

// TestNewBytesStartsNoGoroutine: the byte table has no owners and no
// fabric, so building it and writing through its handles leaves the
// goroutine count where it was. Each writer stays inside its first arena
// segment: from a writer's second segment on, the arena's background first
// touch of the next slab is expected.
func TestNewBytesStartsNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	tb := NewBytes(BytesConfig{Slots: 1 << 10, Partitions: 4})
	const writers, perWriter = 3, 500 // ~20 KiB each, far under arena.DefaultSegmentBytes
	for w := 0; w < writers; w++ {
		h := tb.NewHandle()
		for i := 0; i < perWriter; i++ {
			k := uint64(w*perWriter + i)
			h.PutBytes(le(k), []byte("a value of some thirty bytes."))
		}
	}
	if tb.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", tb.Len(), writers*perWriter)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("NewBytes and its writers took the goroutine count from %d to %d", before, after)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// ten straight milliseconds (or after a second): a WaitGroup that an earlier
// test's Close joined returns before its goroutines have finished exiting.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}
