// Package tabletest provides a conformance suite run against every hash
// table in this repository (Folklore, DRAMHiT's synchronous adapter,
// DRAMHiT-P, the resizing table, the bucket layout). It checks the sequential contract against
// a reference map, the reserved-key side slots, tombstone semantics, fill
// behaviour, and — under the race detector — concurrent linearizability
// smoke properties.
package tabletest

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// Factory builds a fresh table with the given capacity.
type Factory func(n uint64) table.Map

// Cloner is implemented by adapters whose table.Map view is single-goroutine
// (e.g. DRAMHiT's Sync adapter, which owns a prefetch pipeline). The
// concurrency tests give each goroutine its own clone; clones share the
// underlying table storage.
type Cloner interface {
	Clone() table.Map
}

// localView returns a per-goroutine view of m.
func localView(m table.Map) table.Map {
	if c, ok := m.(Cloner); ok {
		return c.Clone()
	}
	return m
}

// release flushes a per-goroutine view's outstanding work (delegated writes
// sitting in unpublished queue sections) before the goroutine finishes.
func release(m table.Map) {
	if r, ok := m.(interface{ Release() }); ok {
		r.Release()
	}
}

// Shutdowner is implemented by table views that own background resources
// (DRAMHiT-P's delegation threads); the suite calls Shutdown when the
// subtest that created the view finishes.
type Shutdowner interface {
	Shutdown()
}

// Option adjusts the suite for a table's semantics.
type Option func(*options)

type options struct {
	looseCapacity bool
}

// LooseCapacity relaxes the tight-packing tests (Full, Wraparound) for
// partitioned tables, whose per-partition capacity means a table cannot
// promise to absorb exactly Cap() keys; a loose 25%-fill test replaces them.
func LooseCapacity() Option {
	return func(o *options) { o.looseCapacity = true }
}

// Run executes the full conformance suite.
func Run(t *testing.T, name string, f Factory, opts ...Option) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	// wrap gives each subtest a factory that tears down background
	// resources when the subtest ends.
	wrap := func(t *testing.T) Factory {
		return func(n uint64) table.Map {
			m := f(n)
			if s, ok := m.(Shutdowner); ok {
				t.Cleanup(s.Shutdown)
			}
			return m
		}
	}
	run := func(sub string, fn func(*testing.T, Factory)) {
		t.Run(name+"/"+sub, func(t *testing.T) { fn(t, wrap(t)) })
	}
	run("Basic", testBasic)
	run("ReservedKeys", testReservedKeys)
	run("Tombstone", testTombstone)
	run("Overwrite", testOverwrite)
	run("Upsert", testUpsert)
	if o.looseCapacity {
		run("LooseFill", testLooseFill)
	} else {
		run("Full", testFull)
		run("Wraparound", testWraparound)
	}
	run("VsMapRandomOps", testVsMap)
	run("QuickProperty", testQuick)
	run("ConcurrentDistinct", testConcurrentDistinct)
	run("ConcurrentSameKeys", testConcurrentSameKeys)
	run("ConcurrentUpsertCount", testConcurrentUpsert)
	run("ReadersNeverTorn", testReadersNeverTorn)
}

// testLooseFill checks that a table at 25% aggregate fill absorbs and
// returns every key, without demanding tight packing.
func testLooseFill(t *testing.T, f Factory) {
	m := f(1024)
	keys := workload.UniqueKeys(909, 256)
	for _, k := range keys {
		if !m.Put(k, k|1) {
			t.Fatalf("Put failed at 25%% fill")
		}
	}
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k|1 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
}

func testBasic(t *testing.T, f Factory) {
	m := f(1024)
	if _, ok := m.Get(42); ok {
		t.Fatal("empty table reports a key present")
	}
	if !m.Put(42, 100) {
		t.Fatal("Put failed on empty table")
	}
	if v, ok := m.Get(42); !ok || v != 100 {
		t.Fatalf("Get(42) = (%d, %v), want (100, true)", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if m.Cap() < 1024 {
		t.Fatalf("Cap = %d, want >= 1024", m.Cap())
	}
	if _, ok := m.Get(43); ok {
		t.Fatal("absent key reported present")
	}
}

func testReservedKeys(t *testing.T, f Factory) {
	m := f(64)
	// The three reserved key values must be fully usable by clients.
	for _, key := range []uint64{table.EmptyKey, table.TombstoneKey, table.MovedKey} {
		if _, ok := m.Get(key); ok {
			t.Fatalf("reserved key %x present in empty table", key)
		}
		if !m.Put(key, key+7) {
			t.Fatalf("Put(%x) failed", key)
		}
		if v, ok := m.Get(key); !ok || v != key+7 {
			t.Fatalf("Get(%x) = (%d, %v)", key, v, ok)
		}
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	// Delete and reinsert cycles on reserved keys (side slots may be
	// reused, unlike array slots).
	for i := 0; i < 3; i++ {
		if !m.Delete(table.EmptyKey) {
			t.Fatal("Delete(EmptyKey) reported absent")
		}
		if _, ok := m.Get(table.EmptyKey); ok {
			t.Fatal("deleted reserved key still present")
		}
		if !m.Put(table.EmptyKey, uint64(i)) {
			t.Fatal("reinsert of reserved key failed")
		}
		if v, _ := m.Get(table.EmptyKey); v != uint64(i) {
			t.Fatalf("reinserted reserved key has value %d, want %d", v, i)
		}
	}
	if _, ok := m.Upsert(table.TombstoneKey, 1); !ok {
		t.Fatal("Upsert on reserved key failed")
	}
}

func testTombstone(t *testing.T, f Factory) {
	m := f(256)
	keys := workload.UniqueKeys(101, 100)
	for _, k := range keys {
		m.Put(k, k)
	}
	if !m.Delete(keys[10]) {
		t.Fatal("Delete of present key returned false")
	}
	if m.Delete(keys[10]) {
		t.Fatal("second Delete of same key returned true")
	}
	if _, ok := m.Get(keys[10]); ok {
		t.Fatal("deleted key still visible")
	}
	// Other keys, including ones that may probe past the tombstone, stay
	// reachable.
	for i, k := range keys {
		if i == 10 {
			continue
		}
		if v, ok := m.Get(k); !ok || v != k {
			t.Fatalf("key %d lost after unrelated delete", i)
		}
	}
	// Reinsertion after deletion must work (it claims a fresh slot).
	if !m.Put(keys[10], 777) {
		t.Fatal("reinsert after delete failed")
	}
	if v, ok := m.Get(keys[10]); !ok || v != 777 {
		t.Fatalf("reinserted key = (%d, %v), want (777, true)", v, ok)
	}
	if m.Delete(0xabcdef0123) {
		t.Fatal("Delete of never-inserted key returned true")
	}
}

func testOverwrite(t *testing.T, f Factory) {
	m := f(128)
	for i := uint64(0); i < 10; i++ {
		m.Put(99, i)
		if v, _ := m.Get(99); v != i {
			t.Fatalf("after Put(99,%d), Get = %d", i, v)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("10 overwrites produced Len = %d, want 1", m.Len())
	}
}

func testUpsert(t *testing.T, f Factory) {
	m := f(128)
	for i := 1; i <= 5; i++ {
		v, ok := m.Upsert(7, 2)
		if !ok || v != uint64(2*i) {
			t.Fatalf("Upsert #%d = (%d, %v), want (%d, true)", i, v, ok, 2*i)
		}
	}
	if v, _ := m.Get(7); v != 10 {
		t.Fatalf("value after upserts = %d, want 10", v)
	}
	// Upsert must coexist with Put.
	m.Put(7, 100)
	if v, _ := m.Upsert(7, 1); v != 101 {
		t.Fatalf("Upsert after Put = %d, want 101", v)
	}
}

func testFull(t *testing.T, f Factory) {
	m := f(16)
	keys := workload.UniqueKeys(202, 64)
	inserted := 0
	for _, k := range keys {
		if m.Put(k, 1) {
			inserted++
		}
	}
	// All implementations must accept at least the slot count... but not
	// more than capacity (side slots excluded since UniqueKeys never emits
	// the reserved values with overwhelming probability).
	if inserted > m.Cap() {
		t.Fatalf("accepted %d inserts into %d slots", inserted, m.Cap())
	}
	if inserted < 16 {
		t.Fatalf("accepted only %d inserts into a 16-slot table", inserted)
	}
	// Everything accepted must be readable.
	ok := 0
	for _, k := range keys {
		if _, found := m.Get(k); found {
			ok++
		}
	}
	if ok != inserted {
		t.Fatalf("accepted %d but can read back %d", inserted, ok)
	}
}

func testWraparound(t *testing.T, f Factory) {
	// With a tiny table, probe chains must wrap around the end of the
	// array. Fill a 8-slot table completely and read everything back.
	m := f(8)
	keys := workload.UniqueKeys(303, 8)
	for _, k := range keys {
		if !m.Put(k, k^0xff) {
			t.Fatalf("Put into non-full table failed")
		}
	}
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k^0xff {
			t.Fatalf("wraparound lost key: (%d, %v)", v, ok)
		}
	}
}

func testVsMap(t *testing.T, f Factory) {
	m := f(4096)
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(404))
	const keySpace = 512 // small key space forces overwrites, deletes, reinserts
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(keySpace))
		if k == 1 {
			k = table.TombstoneKey // exercise reserved keys in the mix
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // put
			v := rng.Uint64() % (1 << 40)
			m.Put(k, v)
			ref[k] = v
		case 4, 5: // upsert
			got, _ := m.Upsert(k, 3)
			ref[k] += 3
			if got != ref[k] {
				t.Fatalf("op %d: Upsert(%d) = %d, want %d", i, k, got, ref[k])
			}
		case 6: // delete
			got := m.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		default: // get
			got, ok := m.Get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d, %v), want (%d, %v)", i, k, got, ok, want, wok)
			}
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("final Len = %d, reference has %d", m.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("final sweep: Get(%d) = (%d, %v), want (%d, true)", k, got, ok, want)
		}
	}
}

func testQuick(t *testing.T, f Factory) {
	// Property: for any sequence of (key, value) pairs, inserting them all
	// and reading them back returns the last value written per key.
	prop := func(pairs []struct{ K, V uint64 }) bool {
		if len(pairs) > 512 {
			pairs = pairs[:512]
		}
		m := f(2048)
		ref := make(map[uint64]uint64)
		for _, p := range pairs {
			v := p.V
			if v == ^uint64(0)-1 { // avoid the reserved in-flight value
				v--
			}
			m.Put(p.K, v)
			ref[p.K] = v
		}
		for k, want := range ref {
			if got, ok := m.Get(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func testConcurrentDistinct(t *testing.T, f Factory) {
	// G goroutines insert disjoint key ranges concurrently; all keys must
	// be present afterwards.
	const g = 8
	const perG = 500
	m := f(8192)
	keys := workload.UniqueKeys(505, g*perG)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lv := localView(m)
			for _, k := range keys[w*perG : (w+1)*perG] {
				lv.Put(k, k+1)
			}
			release(lv)
		}(w)
	}
	wg.Wait()
	for _, k := range keys {
		if v, ok := m.Get(k); !ok || v != k+1 {
			t.Fatalf("lost concurrent insert: Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	if m.Len() != g*perG {
		t.Fatalf("Len = %d, want %d", m.Len(), g*perG)
	}
}

func testConcurrentSameKeys(t *testing.T, f Factory) {
	// All goroutines hammer the same small key set with Puts of
	// recognizable values while readers verify they only ever see
	// recognizable values.
	const g = 4
	const iters = 2000
	m := f(256)
	keys := workload.UniqueKeys(606, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lv := localView(m)
			for i := 0; i < iters; i++ {
				k := keys[i%len(keys)]
				lv.Put(k, k^uint64(w+1)<<48)
			}
			release(lv)
		}(w)
	}
	badc := make(chan uint64, 1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		lv := localView(m)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range keys {
				v, ok := lv.Get(k)
				if !ok {
					continue // not yet inserted
				}
				if w := (v ^ k) >> 48; w < 1 || w > g {
					select {
					case badc <- v:
					default:
					}
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	select {
	case v := <-badc:
		t.Fatalf("reader observed unrecognizable value %x", v)
	default:
	}
}

func testConcurrentUpsert(t *testing.T, f Factory) {
	// The canonical k-mer counting property: G goroutines each upsert the
	// same K keys N times by +1; every counter must end at exactly G*N.
	const g = 6
	const n = 300
	m := f(1024)
	keys := workload.UniqueKeys(707, 20)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lv := localView(m)
			for i := 0; i < n; i++ {
				for _, k := range keys {
					lv.Upsert(k, 1)
				}
			}
			release(lv)
		}()
	}
	wg.Wait()
	for _, k := range keys {
		if v, _ := m.Get(k); v != g*n {
			t.Fatalf("Upsert count for key %d = %d, want %d", k, v, g*n)
		}
	}
}

func testReadersNeverTorn(t *testing.T, f Factory) {
	// Writers store values that are a pure function of the key; a reader
	// that ever observes (key, value) where value != fn(key, writerTag)
	// has seen a torn pair.
	m := f(512)
	keys := workload.UniqueKeys(808, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(tag uint64) {
			defer wg.Done()
			lv := localView(m)
			for i := 0; i < 3000; i++ {
				k := keys[i%len(keys)]
				lv.Put(k, k*2+tag)
			}
			release(lv)
		}(uint64(w))
	}
	errc := make(chan uint64, 1)
	go func() {
		lv := localView(m)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range keys {
				if v, ok := lv.Get(k); ok {
					if tag := v - k*2; tag > 2 {
						select {
						case errc <- v:
						default:
						}
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	select {
	case v := <-errc:
		t.Fatalf("torn read: observed value %d not produced by any writer", v)
	default:
	}
}
