package dramhitp

import (
	"bytes"
	"strings"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
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

// TestPBucketPipelinedReads checks the byte-lookup ring (SubmitGetBytes/
// FlushGetBytes, completions by ID) against bucket partitions, a same-key
// burst included.
func TestPBucketPipelinedReads(t *testing.T) {
	tb := newBucketTableP(4096, 2)
	defer tb.Close()
	w := tb.NewWriteHandle()
	keys := workload.UniqueKeys(23, 1000)
	for _, k := range keys {
		w.PutBytes(le(k), le(k*3))
	}
	r := tb.NewReadHandle()
	var lookups []uint64 // key by completion ID
	r.OnGetBytesComplete(func(id uint64, value []byte, found bool) {
		if k := lookups[id]; !found || !bytes.Equal(value, le(k*3)) {
			t.Fatalf("lookup %d of %d = (%x, %v), want (%x, true)", id, k, value, found, le(k*3))
		}
	})
	// All keys, then a same-key burst longer than the window.
	for i := 0; i < 32; i++ {
		keys = append(keys, keys[7])
	}
	for _, k := range keys {
		r.SubmitGetBytes(uint64(len(lookups)), le(k))
		lookups = append(lookups, k)
	}
	r.FlushGetBytes()
	if s := r.Stats(); s.Gets != uint64(len(keys)) || s.Hits != s.Gets {
		t.Fatalf("%d lookups: Stats %+v", len(keys), s)
	}
}

// TestPBucketByteAPI exercises the byte-string surface: synchronous writes
// through the WriteHandle, reads through the ReadHandle, across partitions —
// then enough inserts into tiny partitions to force them to resize, which a
// bucket table does instead of dropping writes.
func TestPBucketByteAPI(t *testing.T) {
	tb := newBucketTableP(64, 2)
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

	keys := workload.UniqueKeys(11, 3000)
	for _, k := range keys {
		w.PutBytes(le(k), le(k^0xbeef))
	}
	for _, k := range keys {
		if v, ok := r.GetBytes(le(k)); !ok || !bytes.Equal(v, le(k^0xbeef)) {
			t.Fatalf("GetBytes(%d) = (%x, %v) after the partitions grew", k, v, ok)
		}
	}
	if tb.Dropped() != 0 || tb.Len() != len(keys)+2 || tb.Cap() < len(keys) {
		t.Fatalf("Dropped %d, Len %d, Cap %d after %d inserts", tb.Dropped(), tb.Len(), tb.Cap(), len(keys)+2)
	}
	if r.Stats().KeyLines == 0 {
		t.Fatal("bucket reads did not fold engine lines into KeyLines")
	}
}

// TestPBucketSyncConformsSequentially smoke-checks a synchronous adapter on
// the bucket layout — tabletest.ByteMap over a WriteHandle and a ReadHandle,
// 8-byte keys and values — against a reference map (the full conformance
// suite runs from tabletest).
func TestPBucketSyncConformsSequentially(t *testing.T) {
	tb := newBucketTableP(512, 2)
	defer tb.Close()
	s := tabletest.NewByteMap(func() tabletest.ByteAPI {
		return struct {
			*WriteHandle
			*ReadHandle
		}{tb.NewWriteHandle(), tb.NewReadHandle()}
	}, tb.Len, tb.Cap)
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

// TestBucketRejectsFlatOnlySettings: Combining and Governor shape the flat
// partitions' uint64 paths; on a bucket config they would be accepted and
// ignored, so New panics, naming the field.
func TestBucketRejectsFlatOnlySettings(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Combining", func(c *Config) { c.Combining = table.CombineOff }},
		{"Governor", func(c *Config) { c.Governor = table.GovernorDirect }},
	} {
		cfg := Config{Slots: 64, Producers: 1, Consumers: 1, Layout: table.LayoutBucket}
		c.set(&cfg)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Config."+c.field) {
					t.Errorf("New with %s set on a bucket config: panic %q, want one naming Config.%s", c.field, msg, c.field)
				}
			}()
			New(cfg)
		}()
	}
}

// TestUint64APIRequiresFlat pins the other half of the layout diagonal: every
// uint64 entry point of a bucket table's handles and Sync panics with the
// message that names the byte API, and nothing reaches a partition.
func TestUint64APIRequiresFlat(t *testing.T) {
	tb := New(Config{Slots: 256, Producers: 2, Consumers: 1, Layout: table.LayoutBucket})
	tb.Start()
	defer tb.Close()
	w, r, s := tb.NewWriteHandle(), tb.NewReadHandle(), tb.NewSync()
	keys := []uint64{1, 2}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"WriteHandle.Put", func() { w.Put(1, 2) }},
		{"WriteHandle.Upsert", func() { w.Upsert(1, 2) }},
		{"WriteHandle.Delete", func() { w.Delete(1) }},
		{"ReadHandle.Submit", func() { r.Submit([]table.Request{{Op: table.Get, Key: 1}}, make([]table.Response, 1)) }},
		{"ReadHandle.Get", func() { r.Get(1) }},
		{"ReadHandle.GetBatch", func() { r.GetBatch(keys, make([]uint64, 2), make([]bool, 2)) }},
		{"Sync.Get", func() { s.Get(1) }},
		{"Sync.Put", func() { s.Put(1, 2) }},
		{"Sync.Upsert", func() { s.Upsert(1, 2) }},
		{"Sync.Delete", func() { s.Delete(1) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "serves the byte API") {
					t.Errorf("%s on a bucket table: panic %q, want the byte-API message", c.name, msg)
				}
			}()
			c.call()
		}()
	}
	w.Barrier()
	if tb.Len() != 0 || r.Stats().Gets != 0 {
		t.Fatalf("rejected calls left work behind: Len %d, %d Gets", tb.Len(), r.Stats().Gets)
	}
}
