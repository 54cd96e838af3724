package slotarr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"dramhit/internal/hashfn"
	"dramhit/internal/hugemem"
	"dramhit/internal/simd"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

func TestBucketCandidates7(t *testing.T) {
	// Build a meta word by hand: control byte 0x05, lane fingerprints
	// 0x11 0x22 0x11 0x00 0x33 0x00 0x11 for lanes 0..6.
	var meta uint64 = 0x05
	fps := []uint8{0x11, 0x22, 0x11, 0x00, 0x33, 0x00, 0x11}
	for lane, fp := range fps {
		meta |= metaFPByte(lane, fp)
	}
	// Matching 0x11 must flag lanes 0, 2, 6 plus the zero lanes 3, 5 (the
	// false-negative-free fold), and never the control byte.
	got := simd.BucketCandidates7(meta, 0x11)
	want := uint8(1<<0 | 1<<2 | 1<<6 | 1<<3 | 1<<5)
	if got != want {
		t.Fatalf("candidates = %07b, want %07b", got, want)
	}
	// A fingerprint present nowhere still flags only the zero lanes.
	if got := simd.BucketCandidates7(meta, 0x77); got != 1<<3|1<<5 {
		t.Fatalf("absent fp candidates = %07b", got)
	}
	// A full bucket with no match yields an empty mask — the one-line miss.
	var full uint64 = 0xff
	for lane := 0; lane < BucketLanes; lane++ {
		full |= metaFPByte(lane, 0x44)
	}
	if got := simd.BucketCandidates7(full, 0x55); got != 0 {
		t.Fatalf("full-bucket miss mask = %07b, want 0", got)
	}
}

func TestSlotWordEncoding(t *testing.T) {
	for _, fp := range []uint8{1, 0x7f, 0xff} {
		w := slotWord(fp, 0x0000_1234_5678_9abc)
		if slotFP(w) != uint16(fp) || uint64(slotRef(w)) != 0x0000_1234_5678_9abc {
			t.Fatalf("round trip failed for fp %#x", fp)
		}
		if w == 0 || w == slotTombstone {
			t.Fatalf("published word %#x collides with a sentinel", w)
		}
	}
	if slotFP(slotTombstone) == uint16(0xff) {
		t.Fatal("tombstone tag field collides with a legal fingerprint")
	}
}

func TestBucketBasicBytes(t *testing.T) {
	bt := NewBucketTableSlots(64)
	h := bt.NewHandle()
	if _, ok := h.Get([]byte("absent")); ok {
		t.Fatal("empty table reported a key")
	}
	if existed, _ := h.Put([]byte("k1"), []byte("v1")); existed {
		t.Fatal("first Put reported existing")
	}
	if v, ok := h.Get([]byte("k1")); !ok || string(v) != "v1" {
		t.Fatalf("Get = (%q, %v)", v, ok)
	}
	if existed, _ := h.Put([]byte("k1"), []byte("v2-longer-than-before")); !existed {
		t.Fatal("overwrite reported new")
	}
	if v, _ := h.Get([]byte("k1")); string(v) != "v2-longer-than-before" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d", bt.Len())
	}
	if !h.Delete([]byte("k1")) || h.Delete([]byte("k1")) {
		t.Fatal("delete semantics broken")
	}
	if _, ok := h.Get([]byte("k1")); ok {
		t.Fatal("deleted key visible")
	}
	if existed, _ := h.Put([]byte("k1"), []byte("back")); existed {
		t.Fatal("reinsert after delete reported existing")
	}
	if v, _ := h.Get([]byte("k1")); string(v) != "back" {
		t.Fatal("reinsert lost")
	}
}

// TestBucketStashOverflow pins the overflow path: a single bucket with
// growth disabled absorbs far more than its 7 lanes via the stash chain,
// and every key stays reachable, including after deletes.
func TestBucketStashOverflow(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 1, MaxLoad: 1000})
	h := bt.NewHandle()
	const n = 64
	for i := 0; i < n; i++ {
		h.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte{byte(i)})
	}
	if bt.Grows() != 0 {
		t.Fatal("growth ran despite MaxLoad > 1")
	}
	if bt.Stashed() < n-BucketLanes {
		t.Fatalf("stashed = %d, want >= %d", bt.Stashed(), n-BucketLanes)
	}
	for i := 0; i < n; i++ {
		v, ok := h.Get([]byte(fmt.Sprintf("key-%02d", i)))
		if !ok || v[0] != byte(i) {
			t.Fatalf("key %d lost in stash (%v)", i, ok)
		}
	}
	// Delete half (both lane and stash residents), verify the rest.
	for i := 0; i < n; i += 2 {
		if !h.Delete([]byte(fmt.Sprintf("key-%02d", i))) {
			t.Fatalf("delete of stashed key %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := h.Get([]byte(fmt.Sprintf("key-%02d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d presence = %v, want %v", i, ok, want)
		}
	}
	if bt.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", bt.Len(), n/2)
	}
}

// TestBucketSameKeyInsertersIntoStash races inserters of one key set into a
// single bucket with growth off, so its last free lanes and its stash are
// claimed under contention — where a writer that read an empty lane skips the
// stash walk and must still collide with an inserter of the same key. Every
// goroutine Puts every key, in its own order; then every goroutine Deletes
// every key; then every goroutine Puts them again, into the stash alone, the
// lanes being tombstones. A duplicate shows as more live records than keys in
// ScanBuckets, or as a key that survives the deletes.
func TestBucketSameKeyInsertersIntoStash(t *testing.T) {
	const keys, rounds = 13, 100 // a prime key count, so every stride below is a permutation
	g := max(4, runtime.GOMAXPROCS(0))
	key := func(i int) []byte { return []byte(fmt.Sprintf("same-%02d", i)) }
	for r := 0; r < rounds; r++ {
		bt := NewBucketTable(BucketConfig{Buckets: 1, MaxLoad: 1000})
		hs := make([]*BucketHandle, g)
		for w := range hs {
			hs[w] = bt.NewHandle()
		}
		phase := func(name string, del bool, want int) {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w, h := range hs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < keys; i++ {
						if k := key((i*(w+1) + r) % keys); del {
							h.Delete(k)
						} else {
							h.Put(k, []byte{byte(w)})
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			live := 0
			bt.ScanBuckets(nil, func(uint64, int) { live++ })
			if live != want || bt.Len() != want {
				t.Fatalf("round %d, %s: %d live records, Len %d, want %d of each", r, name, live, bt.Len(), want)
			}
			for i := 0; i < keys; i++ {
				if _, ok := hs[0].Get(key(i)); ok != (want > 0) {
					t.Fatalf("round %d, %s: key %d present = %v", r, name, i, ok)
				}
			}
		}
		phase("insert", false, keys)
		phase("delete", true, 0)
		phase("re-insert", false, keys)
		if bt.Stashed() < keys {
			t.Fatalf("round %d: %d stash nodes, want the re-inserts all stashed", r, bt.Stashed())
		}
	}
}

// TestBucketGrowth starts tiny and forces repeated index rebuilds; every
// key must survive every migration, and the rebuild must sweep tombstones.
func TestBucketGrowth(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 2})
	h := bt.NewHandle()
	const n = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("grow-key-%04d", i)) }
	for i := 0; i < n; i++ {
		h.Put(key(i), []byte(fmt.Sprintf("val-%d", i)))
		if i%3 == 0 {
			h.Delete(key(i)) // interleave churn so rebuilds sweep tombstones
		}
	}
	if bt.Grows() < 2 {
		t.Fatalf("grows = %d, want >= 2", bt.Grows())
	}
	for i := 0; i < n; i++ {
		v, ok := h.Get(key(i))
		if want := i%3 != 0; ok != want {
			t.Fatalf("key %d presence = %v, want %v", i, ok, want)
		}
		if ok && string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d value corrupted across resize: %q", i, v)
		}
	}
	// The current generation must hold no tombstones: claimed == live.
	if bt.Claimed() < int64(bt.Len()) {
		t.Fatalf("claimed %d < live %d", bt.Claimed(), bt.Len())
	}
}

// TestBucketGetZeroAlloc pins the acceptance criterion: the byte-KV Get
// path allocates nothing.
func TestBucketGetZeroAlloc(t *testing.T) {
	bt := NewBucketTableSlots(1024)
	h := bt.NewHandle()
	key := []byte("the-key")
	h.Put(key, []byte("the-value"))
	var sink byte
	allocs := testing.AllocsPerRun(200, func() {
		v, ok := h.Get(key)
		if !ok {
			t.Fatal("key lost")
		}
		sink += v[0]
	})
	if allocs != 0 {
		t.Fatalf("Get allocated %v times per run", allocs)
	}
	_ = sink
}

// TestBucketMutateExact checks the read-add-CAS loop under concurrency:
// G goroutines each add 1 to the same counters N times; totals must be
// exact (the k-mer counting contract).
func TestBucketMutateExact(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 4})
	const g, n, nkeys = 6, 250, 10
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := bt.NewHandle()
			var vb [8]byte
			for i := 0; i < n; i++ {
				for k := 0; k < nkeys; k++ {
					key := []byte(fmt.Sprintf("ctr-%d", k))
					h.Mutate(key, func(old []byte, present bool) ([]byte, bool) {
						var c uint64
						if present {
							c = binary.LittleEndian.Uint64(old)
						}
						binary.LittleEndian.PutUint64(vb[:], c+1)
						return vb[:], true
					})
				}
			}
		}()
	}
	wg.Wait()
	h := bt.NewHandle()
	for k := 0; k < nkeys; k++ {
		v, ok := h.Get([]byte(fmt.Sprintf("ctr-%d", k)))
		if !ok || binary.LittleEndian.Uint64(v) != g*n {
			t.Fatalf("counter %d = %d, want %d", k, binary.LittleEndian.Uint64(v), g*n)
		}
	}
}

// TestBucketConcurrentAcrossResize races byte-KV mutators and readers while
// the table grows from 1 bucket through multiple rebuilds — the racing-
// mutators-across-a-resize acceptance case, meaningful under -race.
func TestBucketConcurrentAcrossResize(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 1})
	const g, perG = 4, 300
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("rz-%d-%04d", w, i)) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := bt.NewHandle()
			for i := 0; i < perG; i++ {
				h.Put(key(w, i), bytes.Repeat([]byte{byte(w)}, 1+i%32))
				if i%5 == 0 {
					h.Delete(key(w, i))
				}
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		h := bt.NewHandle()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for w := 0; w < g; w++ {
				for i := 0; i < perG; i += 17 {
					if v, ok := h.Get(key(w, i)); ok {
						if len(v) != 1+i%32 || v[0] != byte(w) {
							t.Errorf("torn read: key(%d,%d) -> %d bytes", w, i, len(v))
							return
						}
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if bt.Grows() < 1 {
		t.Fatalf("expected at least one grow, got %d", bt.Grows())
	}
	h := bt.NewHandle()
	for w := 0; w < g; w++ {
		for i := 0; i < perG; i++ {
			v, ok := h.Get(key(w, i))
			if want := i%5 != 0; ok != want {
				t.Fatalf("key(%d,%d) presence = %v, want %v", w, i, ok, want)
			}
			if ok && (len(v) != 1+i%32 || v[0] != byte(w)) {
				t.Fatalf("key(%d,%d) corrupted", w, i)
			}
		}
	}
}

// TestBucketMapVsReference drives the bucket engine with 8-byte little-endian
// keys and values against a Go map, mixing all four ops over a small key space
// that includes the flat layout's reserved key words: a byte table stores them
// like any other key.
func TestBucketMapVsReference(t *testing.T) {
	bt := NewBucketTableSlots(256)
	h := bt.NewHandle()
	ref := make(map[uint64]uint64)
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	state := uint64(1)
	next := func(n uint64) uint64 { state = hashfn.City64(state); return state % n }
	for i := 0; i < 30000; i++ {
		k := next(200)
		switch k % 17 {
		case 0:
			k = table.TombstoneKey
		case 1:
			k = table.EmptyKey
		case 2:
			k = table.MovedKey
		}
		switch next(10) {
		case 0, 1, 2, 3:
			v := next(1 << 40)
			_, had := ref[k]
			if existed, _ := h.Put(le(k), le(v)); existed != had {
				t.Fatalf("op %d: Put(%d) existed = %v, want %v", i, k, existed, had)
			}
			ref[k] = v
		case 4, 5:
			var got uint64
			h.Mutate(le(k), func(old []byte, present bool) ([]byte, bool) {
				got = 7
				if present {
					got += binary.LittleEndian.Uint64(old)
				}
				return le(got), true
			})
			ref[k] += 7
			if got != ref[k] {
				t.Fatalf("op %d: Mutate(%d) = %d, want %d", i, k, got, ref[k])
			}
		case 6:
			got := h.Delete(le(k))
			if _, want := ref[k]; got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		default:
			v, ok := h.Get(le(k))
			want, wok := ref[k]
			if ok != wok || (ok && binary.LittleEndian.Uint64(v) != want) {
				t.Fatalf("op %d: Get(%d) = (%x,%v), want (%d,%v)", i, k, v, ok, want, wok)
			}
		}
	}
	if bt.Len() != len(ref) {
		t.Fatalf("Len = %d, ref %d", bt.Len(), len(ref))
	}
}

// TestBucketProbeCost pins the headline properties at the engine level. At
// 75% fill a positive lookup costs about one bucket line and almost no
// stash hops (the paper's flat layout reads ~1.3 lines there). Between 75%
// and 90% fill the same probed keys' stash hops grow slowly: overflow goes
// to a per-bucket chain instead of lengthening neighbours' probes, and a
// chain prepends, so only earlier overflow keys move deeper. The default
// MaxLoad sits above 90%, so the resizer stays out of both points.
func TestBucketProbeCost(t *testing.T) {
	const (
		maxLines75  = 1.15 // lines+hops per lookup at 75% fill
		maxHopRatio = 1.38 // stash hops per lookup, 90% fill over 75%
	)
	cases := []struct {
		name  string
		table func() *BucketTable
		keys  func(n int) [][]byte
		fills []float64 // fractions of Cap, filled in order
		probe int       // the first probe keys are looked up at each fill
	}{
		{
			name:  "strings/1000-buckets",
			table: func() *BucketTable { return NewBucketTable(BucketConfig{Buckets: 1000, MaxLoad: 1000}) },
			keys: func(n int) [][]byte {
				keys := make([][]byte, n)
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("probe-key-%05d", i))
				}
				return keys
			},
			fills: []float64{0.75},
			probe: 5250,
		},
		{
			name:  "unique-uint64/2^17-slots",
			table: func() *BucketTable { return NewBucketTableSlots(1 << 17) },
			keys: func(n int) [][]byte {
				keys := make([][]byte, n)
				for i, k := range workload.UniqueKeys(42, n) {
					keys[i] = binary.LittleEndian.AppendUint64(nil, k)
				}
				return keys
			},
			fills: []float64{0.75, 0.90},
			probe: 1 << 17 / 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bt := tc.table()
			h := bt.NewHandle()
			lanes := float64(bt.Cap())
			keys := tc.keys(int(lanes * tc.fills[len(tc.fills)-1]))
			var hops []float64
			filled := 0
			for _, fill := range tc.fills {
				n := int(lanes * fill)
				for _, k := range keys[filled:n] {
					h.Put(k, []byte("v"))
				}
				filled = n
				h.Lines, h.Hops = 0, 0
				for _, k := range keys[:tc.probe] {
					if _, ok := h.Get(k); !ok {
						t.Fatal("key lost")
					}
				}
				ops := float64(tc.probe)
				lines := float64(h.Lines+h.Hops) / ops
				t.Logf("fill %.2f: %.4f lines/op, %.5f stash hops/op", fill, lines, float64(h.Hops)/ops)
				if fill == 0.75 && lines > maxLines75 {
					t.Errorf("positive lookup cost %.4f lines/op at 75%% fill, want <= %.2f", lines, maxLines75)
				}
				hops = append(hops, float64(h.Hops)/ops)
			}
			if len(hops) == 2 {
				if ratio := hops[1] / hops[0]; hops[0] == 0 || ratio > maxHopRatio {
					t.Errorf("stash hops/op %.4f at 90%% fill vs %.4f at 75%%: ratio %.3f, want <= %.2f",
						hops[1], hops[0], ratio, maxHopRatio)
				}
			}
			if g := bt.Grows(); g != 0 {
				t.Errorf("%d grows: the resizer ran below the measured fills", g)
			}
		})
	}
}

// TestMutateDeclineLeavesKey pins Mutate's store flag: a callback that
// returns store false leaves a present key's record in place, in a lane or
// in the stash, and leaves an absent key absent without claiming a lane.
func TestMutateDeclineLeavesKey(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 1, MaxLoad: 100}) // growth off: keys past seven go to the stash
	h := bt.NewHandle()
	key := func(i int) []byte { return []byte(fmt.Sprintf("decline-%02d", i)) }
	const n = 12
	for i := 0; i < n; i++ {
		h.Put(key(i), []byte{byte(i)})
	}
	if bt.Stashed() == 0 {
		t.Fatal("expected stashed keys at 12 keys over 7 lanes")
	}
	decline := func(_ []byte, _ bool) ([]byte, bool) { return []byte("junk"), false }
	claimed := bt.Claimed()
	for i := 0; i < n; i++ {
		before, _ := h.Get(key(i))
		if existed, _ := h.Mutate(key(i), decline); !existed {
			t.Fatalf("Mutate(%d) reported absent", i)
		}
		after, ok := h.Get(key(i))
		if !ok || &after[0] != &before[0] || after[0] != byte(i) {
			t.Fatalf("declined Mutate(%d) replaced the record: %v -> %v", i, before, after)
		}
	}
	if existed, _ := h.Mutate([]byte("absent"), decline); existed {
		t.Fatal("Mutate of an absent key reported present")
	}
	if _, ok := h.Get([]byte("absent")); ok {
		t.Fatal("declined Mutate created the key")
	}
	if bt.Len() != n || bt.Claimed() != claimed {
		t.Fatalf("Len %d, Claimed %d after declines; want %d, %d", bt.Len(), bt.Claimed(), n, claimed)
	}
}

// TestBucketPrefetchTolerant drives both prefetch stages over every shape of
// bucket a racing probe can meet — never-touched, live, tombstoned, stashed,
// and rebuilt by a grow — for hashes of keys that are present, deleted and
// never inserted. A prefetch is a hint: nothing may panic and nothing may
// change.
func TestBucketPrefetchTolerant(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 2, MaxLoad: 100}) // growth off: lanes fill, the stash takes the rest
	h := bt.NewHandle()
	key := func(i int) []byte { return []byte(fmt.Sprintf("pf-key-%04d", i)) }
	stage := func(n int) {
		for i := 0; i < n; i++ {
			hv := bt.HashOf(key(i))
			bt.Prefetch(hv)
			bt.PrefetchRecords(hv, SpanUnknown)
			bt.PrefetchRecords(hv, 18)
		}
	}
	stage(64) // empty table
	for i := 0; i < 40; i++ {
		h.Put(key(i), []byte(fmt.Sprintf("val-%d", i)))
		if i%4 == 0 {
			h.Delete(key(i))
		}
	}
	if bt.Stashed() == 0 {
		t.Fatal("expected stash overflow at 40 keys over 14 lanes")
	}
	stage(64) // live, tombstoned, stashed, absent

	grown := NewBucketTable(BucketConfig{Buckets: 1})
	gh := grown.NewHandle()
	for i := 0; i < 200; i++ {
		gh.Put(key(i), []byte("v"))
	}
	if grown.Grows() == 0 {
		t.Fatal("expected at least one grow")
	}
	for i := 0; i < 256; i++ {
		hv := grown.HashOf(key(i))
		grown.Prefetch(hv)
		grown.PrefetchRecords(hv, SpanUnknown)
	}

	for i := 0; i < 40; i++ {
		v, ok := h.Get(key(i))
		if want := i%4 != 0; ok != want || (ok && string(v) != fmt.Sprintf("val-%d", i)) {
			t.Fatalf("key %d = (%q, %v) after prefetching", i, v, ok)
		}
	}
}

// TestHashedEntryPointsAcrossGrow pins the hashed entry points' contract: hv
// is only the key's hash, the bucket is derived from it against the state the
// call loads, so hashes taken before the index was rebuilt (several times)
// still address their keys afterwards, for every operation.
func TestHashedEntryPointsAcrossGrow(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 1})
	h := bt.NewHandle()
	const n = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("hashed-key-%04d", i)) }
	hvs := make([]uint64, n)
	for i := range hvs {
		hvs[i] = bt.HashOf(key(i)) // all taken at one bucket
	}
	for i := 0; i < n; i++ {
		if existed, _ := h.PutHashed(hvs[i], key(i), []byte{byte(i)}); existed {
			t.Fatalf("key %d existed on first Put", i)
		}
	}
	if bt.Grows() < 3 {
		t.Fatalf("expected several grows, got %d", bt.Grows())
	}
	for i := 0; i < n; i++ {
		v, ok := h.GetHashed(hvs[i], key(i))
		if !ok || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("GetHashed(%d) = (%v, %v)", i, v, ok)
		}
		switch i % 3 {
		case 0:
			if !h.DeleteHashed(hvs[i], key(i)) {
				t.Fatalf("DeleteHashed(%d) missed", i)
			}
		case 1:
			existed, _ := h.MutateHashed(hvs[i], key(i), func(old []byte, present bool) ([]byte, bool) {
				if !present || old[0] != byte(i) {
					t.Errorf("MutateHashed(%d) saw (%v, %v)", i, old, present)
				}
				return []byte{byte(i), 1}, true
			})
			if !existed {
				t.Fatalf("MutateHashed(%d) reported absent", i)
			}
		}
	}
	for i := 0; i < n; i++ {
		v, ok := h.Get(key(i)) // the unhashed wrapper agrees
		wantLen := 1           // untouched; the mutated third grew to two bytes
		if i%3 == 1 {
			wantLen = 2
		}
		if want := i%3 != 0; ok != want || (ok && len(v) != wantLen) {
			t.Fatalf("Get(%d) = (%v, %v) after hashed updates", i, v, ok)
		}
	}
	if bt.Len() != n-(n+2)/3 {
		t.Fatalf("Len = %d, want %d", bt.Len(), n-(n+2)/3)
	}
}

// TestHugeIndexOutlivesGrow is the ownership test for the huge-page path: the
// index is big enough to be allocated through hugemem, a reader prefetches and
// looks up with no pin while the index is rebuilt under it several times, and
// a collection runs after every rebuild. Only the garbage collector keeps the
// generation a reader loaded valid, so the words must be ordinary heap memory:
// storage that a grow unmapped would fault here.
func TestHugeIndexOutlivesGrow(t *testing.T) {
	const buckets = hugemem.Threshold / (8 * BucketWords)
	// A load factor this low rebuilds (at the same size) on every insert past
	// the first few hundred, and each rebuild allocates a fresh index.
	bt := NewBucketTable(BucketConfig{Buckets: buckets, MaxLoad: 0.0005})
	h := bt.NewHandle()
	key := func(i int) []byte { return []byte(fmt.Sprintf("own-key-%05d", i)) }
	const preload = 256
	for i := 0; i < preload; i++ {
		h.Put(key(i), []byte{byte(i)})
	}
	if bt.Grows() != 0 {
		t.Fatalf("grew %d times during the preload", bt.Grows())
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rh := bt.NewHandle()
		for i := 0; ; i = (i + 1) % preload {
			select {
			case <-stop:
				return
			default:
			}
			hv := bt.HashOf(key(i))
			bt.Prefetch(hv)
			bt.PrefetchRecords(hv, SpanUnknown)
			if v, ok := rh.GetHashed(hv, key(i)); !ok || len(v) != 1 || v[0] != byte(i) {
				t.Errorf("Get(%d) = (%v, %v) across a grow", i, v, ok)
				return
			}
		}
	}()
	for i := preload; bt.Grows() < 3; i++ {
		before := bt.Grows()
		h.Put(key(i), []byte{byte(i)})
		if bt.Grows() != before {
			runtime.GC()
		}
	}
	close(stop)
	<-done
	if got := bt.Buckets(); got != buckets {
		t.Fatalf("index has %d buckets, want %d: the rebuilds left the huge path", got, buckets)
	}
}

// TestBucketStateCountersOwnLine: every insert writes claimed (and a stash
// insert stashed), and every probe reads nb first, so the counters must not
// share a cache line with nb or the slice headers beside it. bucketState is a
// whole number of lines, which puts it in a line-aligned allocation size class.
func TestBucketStateCountersOwnLine(t *testing.T) {
	var st bucketState
	if n := unsafe.Sizeof(st); n%table.CacheLineBytes != 0 {
		t.Fatalf("bucketState is %d bytes, not a whole number of cache lines", n)
	}
	read := unsafe.Offsetof(st.nb) / table.CacheLineBytes
	for _, f := range []struct {
		name string
		off  uintptr
	}{{"claimed", unsafe.Offsetof(st.claimed)}, {"stashed", unsafe.Offsetof(st.stashed)}} {
		if f.off/table.CacheLineBytes == read {
			t.Errorf("%s at offset %d shares line %d with nb", f.name, f.off, read)
		}
	}
	if p := uintptr(unsafe.Pointer(NewBucketTable(BucketConfig{}).state.Load())); p%table.CacheLineBytes != 0 {
		t.Fatalf("bucketState allocated at %#x, not on a line boundary", p)
	}
}

// TestSegmentUtilizationClamped: an open segment publishes its used count per
// 4 KiB page, so records overwritten before their page's count was stored
// leave the segment's Dead above its Used. The heatmap's utilization must read
// 0 there, not the uint64 wrap-around of Used-Dead.
func TestSegmentUtilizationClamped(t *testing.T) {
	bt := NewBucketTable(BucketConfig{Buckets: 64})
	h := bt.NewHandle()
	for round := 0; round < 2; round++ { // the second round overwrites the first
		for i := 0; i < 16; i++ {
			h.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte{byte(round)})
		}
	}
	segs := bt.Arena().SegmentStats()
	if len(segs) != 1 || segs[0].Sealed || segs[0].Dead <= segs[0].Used {
		t.Fatalf("segments %+v: want one open segment with Dead > Used", segs)
	}
	hm := BucketHeatmapMulti([]*BucketTable{bt}, 0)
	for _, d := range hm.Dists {
		if d.Name == "segment_utilization_pct" {
			if d.Count != 1 || d.Max != 0 {
				t.Fatalf("segment_utilization_pct: %d samples, max %d; want 1 sample of 0", d.Count, d.Max)
			}
			return
		}
	}
	t.Fatal("no segment_utilization_pct distribution")
}
