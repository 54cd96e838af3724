package dramhit

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

func newBucketTable(slots uint64, extra ...func(*Config)) *Table {
	cfg := Config{Slots: slots, Layout: table.LayoutBucket}
	for _, fn := range extra {
		fn(&cfg)
	}
	return New(cfg)
}

// le is the 8-byte little-endian encoding the byte-API ports of uint64
// workloads use for keys and values.
func le(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestBucketPipelineBasic drives the byte ring end to end on the bucket
// layout: puts, reads with completions matched by ID, synchronous upserts,
// reads again; then Len and the folded engine counters.
func TestBucketPipelineBasic(t *testing.T) {
	tb := newBucketTable(4096)
	if tb.Layout() != table.LayoutBucket || tb.Bucket() == nil {
		t.Fatal("bucket table does not report LayoutBucket")
	}
	h := tb.NewHandle()
	keys := workload.UniqueKeys(42, 2000)
	var delta uint64
	gets := 0
	h.OnByteComplete(func(c ByteCompletion) {
		if c.Op != table.Get {
			return
		}
		gets++
		if want := le(keys[c.ID] ^ 0xdead + delta); !c.Found || !bytes.Equal(c.Value, want) {
			t.Fatalf("Get[%d] = (%x, %v), want (%x, true)", c.ID, c.Value, c.Found, want)
		}
	})
	for i, k := range keys {
		h.SubmitBytes(table.Put, uint64(i), le(k), le(k^0xdead))
	}
	getAll := func() {
		for i, k := range keys {
			h.SubmitBytes(table.Get, uint64(i), le(k), nil)
		}
		h.FlushBytes()
	}
	getAll()
	delta = 3
	for _, k := range keys {
		h.UpsertBytes(le(k), func(old []byte, _ bool) ([]byte, bool) {
			return le(binary.LittleEndian.Uint64(old) + 3), true
		})
	}
	getAll()
	if gets != 2*len(keys) {
		t.Fatalf("%d Get completions, want %d", gets, 2*len(keys))
	}
	if tb.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(keys))
	}
	s := h.Stats()
	if s.Ops() == 0 || s.KeyLines == 0 {
		t.Fatalf("bucket stats not folded: %+v", s)
	}
}

// TestBucketReservedKeys checks that the byte encodings of the flat layout's
// reserved key values, and the empty key, are ordinary keys on the bucket
// layout (no side slots involved).
func TestBucketReservedKeys(t *testing.T) {
	h := newBucketTable(256).NewHandle()
	keys := [][]byte{{}, le(table.EmptyKey), le(table.TombstoneKey), le(table.MovedKey)}
	for i, k := range keys {
		if existed, ok := h.PutBytes(k, le(uint64(i)+9)); existed || !ok {
			t.Fatalf("fresh key %x: existed %v ok %v", k, existed, ok)
		}
	}
	for i, k := range keys {
		if v, ok := h.GetBytes(k); !ok || !bytes.Equal(v, le(uint64(i)+9)) {
			t.Fatalf("GetBytes(%x) = (%x, %v)", k, v, ok)
		}
	}
	if n := h.t.Len(); n != len(keys) {
		t.Fatalf("Len = %d, want %d", n, len(keys))
	}
	if !h.DeleteBytes(le(table.MovedKey)) {
		t.Fatal("DeleteBytes(MovedKey) reported absent")
	}
	if _, ok := h.GetBytes(le(table.MovedKey)); ok {
		t.Fatal("deleted reserved key still present")
	}
}

// TestBucketGrowthThroughPipeline forces the engine to resize mid-stream
// under a pipelined byte writer and checks nothing is lost.
func TestBucketGrowthThroughPipeline(t *testing.T) {
	tb := newBucketTable(32) // tiny: 2000 inserts force several doublings
	h := tb.NewHandle()
	keys := workload.UniqueKeys(7, 2000)
	found := 0
	h.OnByteComplete(func(c ByteCompletion) {
		if c.Op == table.Get && c.Found && bytes.Equal(c.Value, le(keys[c.ID]+1)) {
			found++
		}
	})
	for i, k := range keys {
		h.SubmitBytes(table.Put, uint64(i), le(k), le(k+1))
	}
	h.FlushBytes()
	if g := tb.Bucket().Grows(); g < 2 {
		t.Fatalf("Grows = %d, want >= 2", g)
	}
	for i, k := range keys {
		h.SubmitBytes(table.Get, uint64(i), le(k), nil)
	}
	h.FlushBytes()
	if found != len(keys) {
		t.Fatalf("%d of %d keys read back across resizes", found, len(keys))
	}
}

// TestBucketFlatEquivalence replays one uint64 workload through a flat
// table's Sync adapter and, as 8-byte encodings, through a bucket table's
// byte API, and requires identical responses op by op (the layouts differ
// physically, never semantically).
func TestBucketFlatEquivalence(t *testing.T) {
	flat := New(Config{Slots: 4096}).NewSync()
	bkt := byteMap(newBucketTable(4096))
	rng := workload.UniqueKeys(99, 1)[0] // deterministic scramble seed
	key := func(i int) uint64 { return (uint64(i)%257)*0x9e37 ^ rng }
	for i := 0; i < 12000; i++ {
		k := key(i)
		switch i % 7 {
		case 0, 1:
			v := uint64(i) * 3
			pf, pb := flat.Put(k, v), bkt.Put(k, v)
			if pf != pb {
				t.Fatalf("op %d: Put diverged: flat=%v bucket=%v", i, pf, pb)
			}
		case 2:
			vf, of := flat.Upsert(k, 5)
			vb, ob := bkt.Upsert(k, 5)
			if vf != vb || of != ob {
				t.Fatalf("op %d: Upsert diverged: flat=(%d,%v) bucket=(%d,%v)", i, vf, of, vb, ob)
			}
		case 3:
			df, db := flat.Delete(k), bkt.Delete(k)
			if df != db {
				t.Fatalf("op %d: Delete diverged: flat=%v bucket=%v", i, df, db)
			}
		default:
			vf, of := flat.Get(k)
			vb, ob := bkt.Get(k)
			if vf != vb || of != ob {
				t.Fatalf("op %d: Get diverged: flat=(%d,%v) bucket=(%d,%v)", i, vf, of, vb, ob)
			}
		}
		if flat.Len() != bkt.Len() {
			t.Fatalf("op %d: Len diverged: flat=%d bucket=%d", i, flat.Len(), bkt.Len())
		}
	}
}

// TestBucketConcurrentEquivalence runs racing mutators on both layouts — the
// flat table's batch helpers, the bucket table's byte API — over disjoint key
// ranges (so the final state is deterministic) across at least one bucket
// resize, then requires identical final contents. Run under -race this
// doubles as the byte API's race check against the resizer.
func TestBucketConcurrentEquivalence(t *testing.T) {
	flatT := New(Config{Slots: 1 << 14})
	bktT := newBucketTable(64) // starts tiny: racing writers drive resizes
	const g = 4
	const perG = 1500
	keys := workload.UniqueKeys(123, g*perG)
	run := func(mutate func(part, vals []uint64)) {
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				part := keys[w*perG : (w+1)*perG]
				vals := make([]uint64, len(part))
				for i, k := range part {
					vals[i] = k * 2
				}
				mutate(part, vals)
			}(w)
		}
		wg.Wait()
	}
	run(func(part, vals []uint64) {
		h := flatT.NewHandle()
		h.PutBatch(part, vals)
		h.UpsertBatch(part[:perG/2], 1)
		for i := 0; i < perG/8; i++ {
			h.Submit([]table.Request{{Op: table.Delete, Key: part[perG-1-i]}}, nil)
		}
		h.Flush(nil)
	})
	run(func(part, vals []uint64) {
		h := byteMap(bktT)
		for i, k := range part {
			h.Put(k, vals[i])
		}
		for _, k := range part[:perG/2] {
			h.Upsert(k, 1)
		}
		for i := 0; i < perG/8; i++ {
			h.Delete(part[perG-1-i])
		}
	})
	if bktT.Bucket().Grows() == 0 {
		t.Fatal("expected at least one resize under racing writers")
	}
	if flatT.Len() != bktT.Len() {
		t.Fatalf("final Len: flat=%d bucket=%d", flatT.Len(), bktT.Len())
	}
	fs, bs := flatT.NewSync(), byteMap(bktT)
	for _, k := range keys {
		vf, of := fs.Get(k)
		vb, ob := bs.Get(k)
		if vf != vb || of != ob {
			t.Fatalf("key %d: flat=(%d,%v) bucket=(%d,%v)", k, vf, of, vb, ob)
		}
	}
}

// TestUint64APIRequiresFlat pins the other half of the layout diagonal: every
// uint64 entry point on a bucket table panics with the message that names the
// byte API, before it consumes anything.
func TestUint64APIRequiresFlat(t *testing.T) {
	tb := newBucketTable(256)
	h, s := tb.NewHandle(), tb.NewSync()
	keys := []uint64{1, 2}
	resps := make([]table.Response, 4)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Submit", func() { h.Submit([]table.Request{{Op: table.Put, Key: 1, Value: 2}}, resps) }},
		{"Get", func() { h.Get(1) }},
		{"GetBatch", func() { h.GetBatch(keys, make([]uint64, 2), make([]bool, 2)) }},
		{"PutBatch", func() { h.PutBatch(keys, keys) }},
		{"UpsertBatch", func() { h.UpsertBatch(keys, 1) }},
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
	if st := h.Stats(); tb.Len() != 0 || h.Pending() != 0 || st.Ops() != 0 {
		t.Fatalf("rejected calls left work behind: Len %d, pending %d, %+v", tb.Len(), h.Pending(), st)
	}
}

// TestBucketByteAPI exercises the byte-string surface the layout grows:
// variable-length keys and values, mutate-in-place, delete.
func TestBucketByteAPI(t *testing.T) {
	h := newBucketTable(1024).NewHandle()
	if existed, ok := h.PutBytes([]byte("chr1:1042"), []byte("ACGTACGT")); existed || !ok {
		t.Fatalf("fresh byte key: existed %v ok %v", existed, ok)
	}
	if v, ok := h.GetBytes([]byte("chr1:1042")); !ok || string(v) != "ACGTACGT" {
		t.Fatalf("GetBytes = (%q, %v)", v, ok)
	}
	if _, ok := h.GetBytes([]byte("chr1:1043")); ok {
		t.Fatal("absent byte key reported present")
	}
	h.UpsertBytes([]byte("chr1:1042"), func(old []byte, present bool) ([]byte, bool) {
		if !present || string(old) != "ACGTACGT" {
			t.Fatalf("UpsertBytes saw (%q, %v)", old, present)
		}
		return append(append([]byte(nil), old...), '!'), true
	})
	if v, _ := h.GetBytes([]byte("chr1:1042")); string(v) != "ACGTACGT!" {
		t.Fatalf("after mutate, value = %q", v)
	}
	if !h.DeleteBytes([]byte("chr1:1042")) {
		t.Fatal("DeleteBytes of present key reported absent")
	}
	if h.DeleteBytes([]byte("chr1:1042")) {
		t.Fatal("second DeleteBytes reported present")
	}
	s := h.Stats()
	if s.Gets != 3 || s.Puts != 1 || s.Upserts != 1 || s.Deletes != 2 {
		t.Fatalf("byte ops miscounted: %+v", s)
	}
}

// TestBucketByteGetZeroAlloc pins the acceptance criterion: a byte-KV Get
// allocates nothing.
func TestBucketByteGetZeroAlloc(t *testing.T) {
	h := newBucketTable(1024).NewHandle()
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte{byte(i), byte(i >> 3), 'k', 'e', 'y'}
		h.PutBytes(keys[i], []byte{byte(i), 0xaa})
	}
	var sink byte
	allocs := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			v, ok := h.GetBytes(k)
			if !ok {
				t.Fatal("lost key")
			}
			sink ^= v[0]
		}
	})
	if allocs != 0 {
		t.Fatalf("GetBytes allocates %.1f per run, want 0", allocs)
	}
	_ = sink
}

// TestBucketByteAPIRequiresLayout pins the panic contract on flat tables.
func TestBucketByteAPIRequiresLayout(t *testing.T) {
	h := New(Config{Slots: 64}).NewHandle()
	defer func() {
		if recover() == nil {
			t.Fatal("byte API on a flat table did not panic")
		}
	}()
	h.PutBytes([]byte("k"), []byte("v"))
}

// TestBucketRejectsFlatOnlySettings: Governor shapes the flat table's uint64
// ring, which a bucket table does not have. Set on a bucket config it would
// be accepted and ignored, so New and NewView panic, naming the field.
func TestBucketRejectsFlatOnlySettings(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Governor", func(c *Config) { c.Governor = table.GovernorDirect }},
	} {
		cfg := Config{Slots: 64, Layout: table.LayoutBucket}
		c.set(&cfg)
		for name, build := range map[string]func(){
			"New": func() { New(cfg) },
			"NewView": func() {
				NewView(cfg, Regions{Buckets: []*slotarr.BucketTable{slotarr.NewBucketTableSlots(64)}, Side: new(slotarr.SidePair)})
			},
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "Config."+c.field) {
						t.Errorf("%s with %s set on a bucket config: panic %q, want one naming Config.%s", name, c.field, msg, c.field)
					}
				}()
				build()
			}()
		}
	}
}
