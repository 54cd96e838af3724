package dramhit

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dramhit/internal/table"
)

// digest folds a run's observable behaviour — every response in order, then
// the handle's final Stats — into one number.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) stats(s Stats) {
	// The two zeros hold the places of the tag-sidecar counters the pinned
	// digests were computed with (hits and false positives; no flat probe
	// has a sidecar any more), so the constants still describe the counters.
	d.u64(s.Gets, s.Puts, s.Upserts, s.Deletes, s.Hits, s.Failed, s.Reprobes, s.Lines,
		s.KeyLines, s.TagSkips, 0, 0,
		s.CombinedUpserts, s.PiggybackedGets, s.ForwardedGets, s.CASAttempts)
}

// runUint64Digest drives a fixed-seed mixed-op stream (all four ops, reserved
// keys, a hot range so same-key meetings, reprobes, tombstones and — on the small
// table — full-table failures all occur) through one flat handle.
func runUint64Digest(cfg Config) uint64 {
	h := New(cfg).NewHandle()
	rng := rand.New(rand.NewSource(20230913))
	d := newDigest()
	resps := make([]table.Response, 4096)
	emit := func(n int) {
		for _, r := range resps[:n] {
			d.u64(r.ID, r.Value)
			d.flag(r.Found)
		}
	}
	var batch []table.Request
	for i := 0; i < 20000; i++ {
		var k uint64
		switch rng.Intn(40) {
		case 0:
			k = table.EmptyKey
		case 1:
			k = table.TombstoneKey
		default:
			k = uint64(rng.Intn(3000)) + 1
		}
		batch = append(batch, table.Request{Op: table.Op(rng.Intn(4)), Key: k, Value: uint64(rng.Intn(1 << 16)), ID: uint64(i)})
		if len(batch) < 1+rng.Intn(48) {
			continue
		}
		for rem := batch; len(rem) > 0; {
			nq, nr := h.Submit(rem, resps)
			emit(nr)
			rem = rem[nq:]
		}
		batch = batch[:0]
		if rng.Intn(3) == 0 {
			for done := false; !done; {
				var nr int
				nr, done = h.Flush(resps)
				emit(nr)
			}
		}
	}
	for done := false; !done; {
		var nr int
		nr, done = h.Flush(resps)
		emit(nr)
	}
	d.stats(h.Stats())
	return d.h.Sum64()
}

// runBytesDigest is the byte ring's counterpart: GET/SET/DEL over a hot
// keyspace on a table small enough to grow several times mid-run.
func runBytesDigest() uint64 {
	h := New(Config{Slots: 256, Layout: table.LayoutBucket}).NewHandle()
	rng := rand.New(rand.NewSource(20230914))
	d := newDigest()
	h.OnByteComplete(func(c ByteCompletion) {
		d.u64(c.ID, uint64(c.Op), uint64(len(c.Value)))
		d.h.Write(c.Value)
		d.flag(c.Found)
	})
	for i := 0; i < 20000; i++ {
		k := []byte(fmt.Sprintf("digest-key-%05d", rng.Intn(5000)))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			h.SubmitBytes(table.Get, uint64(i), k, nil)
		case 5, 6, 7, 8:
			h.SubmitBytes(table.Put, uint64(i), k, []byte(fmt.Sprintf("value-%d-%d", i, rng.Intn(1000))))
		default:
			h.SubmitBytes(table.Delete, uint64(i), k, nil)
		}
		if rng.Intn(40) == 0 {
			h.FlushBytes()
		}
	}
	h.FlushBytes()
	d.stats(h.Stats())
	d.u64(h.t.Bucket().Grows())
	return d.h.Sum64()
}

// TestPrefetchInvisible pins the digests of fixed-seed runs. The constants
// were produced by the commit before the hardware prefetch existed, and the
// same file runs under the default build (PREFETCHT0/PRFM issued) and under
// -tags purego (no-op stub): all three agreeing is the proof that prefetching
// — the flat ring's line prefetches and both stages of the byte ring —
// changes no response, no completion order and no counter. The flat
// constants were re-pinned when the ring stopped combining and began to walk
// a prefetched line pair per visit; the flat-nocombine case became flat-none
// then. Before re-pinning, each request's response was checked against the
// uncombined one-line ring's, ID by ID, and found identical: the pair walk
// moves completions, not answers.
func TestPrefetchInvisible(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"flat-none", Config{Slots: 4096}, 0xab1c31c4ebf47991},
		{"flat-full-window4", Config{Slots: 1024, PrefetchWindow: 4}, 0xd1552d0c4a5647ec},
	} {
		if got := runUint64Digest(c.cfg); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
	if got, want := runBytesDigest(), uint64(0xf94824f801d035ef); got != want {
		t.Errorf("bytes: digest %#x, want %#x", got, want)
	}
}

// TestByteRingPrefetchRaces runs byte rings — so PrefetchRecords is always in
// flight over other handles' buckets — against concurrent overwrites and
// deletes of the same keys and against inserts that force the index to grow
// repeatedly. One ring streams (stage two from the drain, steady state), the
// other runs batches of one to seven with a flush after each (shorter than
// half the window: stage two from the first drain of the flush). Every ring
// entry reaches the engine through the hashed entry points with a hash taken
// at submit, so each grow in between is a state swap under a carried hash.
// Values are a function of their key, so any completion that resolved through
// a stale or torn slot word shows as a mismatched value; under -race it is
// also the data-race check on both prefetch stages.
func TestByteRingPrefetchRaces(t *testing.T) {
	tbl := New(Config{Slots: 64, Layout: table.LayoutBucket})
	const hot = 400
	key := func(i int) []byte { return []byte(fmt.Sprintf("race-key-%06d", i)) }
	valOK := func(k, v []byte) bool {
		return len(v) >= len(k) && string(v[:len(k)]) == string(k)
	}
	val := func(k []byte, ver int) []byte { return []byte(fmt.Sprintf("%s/%d", k, ver)) }

	var stop atomic.Bool
	var ringOps atomic.Int64
	var wg sync.WaitGroup
	// Ring workers: pipelined GET/SET/DEL over the hot keys.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tbl.NewHandle()
			keys := make(map[uint64][]byte)
			h.OnByteComplete(func(c ByteCompletion) {
				k := keys[c.ID]
				delete(keys, c.ID)
				if c.Op == table.Get && c.Found && !valOK(k, c.Value) {
					t.Errorf("Get %q = %q", k, c.Value)
				}
			})
			rng := rand.New(rand.NewSource(int64(g) + 1))
			batch := 0
			for i := uint64(0); !stop.Load(); i++ {
				k := key(rng.Intn(hot))
				keys[i] = k
				switch rng.Intn(8) {
				case 0:
					h.SubmitBytes(table.Put, i, k, val(k, int(i)))
				case 1:
					h.SubmitBytes(table.Delete, i, k, nil)
				default:
					h.SubmitBytes(table.Get, i, k, nil)
				}
				if batch--; (g == 0 && rng.Intn(100) == 0) || (g == 1 && batch <= 0) {
					h.FlushBytes()
					batch = 1 + rng.Intn(7)
				}
				ringOps.Add(1)
			}
			h.FlushBytes()
		}(g)
	}
	// Synchronous overwriter/deleter on the same keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := tbl.NewHandle()
		rng := rand.New(rand.NewSource(99))
		for i := 0; !stop.Load(); i++ {
			k := key(rng.Intn(hot))
			if rng.Intn(3) == 0 {
				h.DeleteBytes(k)
			} else {
				h.PutBytes(k, val(k, i))
			}
		}
	}()
	// Grower: fresh keys until the index has been rebuilt several times with
	// the rings demonstrably running alongside.
	h := tbl.NewHandle()
	start := tbl.Bucket().Grows()
	for i := hot; tbl.Bucket().Grows() < start+6 || ringOps.Load() < 20000; i++ {
		k := key(i)
		h.PutBytes(k, val(k, 0))
	}
	stop.Store(true)
	wg.Wait()
}

// TestByteRingCarriedHashAcrossGrow is the deterministic half of the race
// test's claim: requests sit in the ring with the hash taken at submit while
// the index is rebuilt under them several times, and the drain must still
// address the right bucket — the engine derives it from the hash against the
// state it loads, never from anything computed at submit.
func TestByteRingCarriedHashAcrossGrow(t *testing.T) {
	tbl := New(Config{Slots: 64, Layout: table.LayoutBucket})
	h, grower := tbl.NewHandle(), tbl.NewHandle()
	key := func(i int) []byte { return []byte(fmt.Sprintf("carried-key-%04d", i)) }
	done := 0
	h.OnByteComplete(func(c ByteCompletion) {
		if want := c.Op == table.Get; c.Found != want || (want && string(c.Value) != "old") {
			t.Errorf("completion %d (op %d) = (%q, %v)", c.ID, c.Op, c.Value, c.Found)
		}
		done++
	})
	const inflight = 12
	for i := 0; i < inflight/2; i++ {
		h.PutBytes(key(i), []byte("old"))
	}
	for i := 0; i < inflight; i++ { // Gets of present keys, Puts of absent ones
		if i < inflight/2 {
			h.SubmitBytes(table.Get, uint64(i), key(i), nil)
		} else {
			h.SubmitBytes(table.Put, uint64(i), key(i), []byte("new"))
		}
	}
	start := tbl.Bucket().Grows()
	for i := 1000; tbl.Bucket().Grows() < start+3; i++ {
		grower.PutBytes(key(i), []byte("filler"))
	}
	h.FlushBytes()
	if done != inflight {
		t.Fatalf("%d of %d completions", done, inflight)
	}
	for i := inflight / 2; i < inflight; i++ {
		if v, ok := grower.GetBytes(key(i)); !ok || string(v) != "new" {
			t.Fatalf("key %d after the flush = (%q, %v)", i, v, ok)
		}
	}
}

// TestByteRingZeroAlloc pins the byte ring's steady state — SubmitBytes and
// FlushBytes of Gets, overwriting Puts and Deletes, entries built and drained
// in their slots, the engine handle and the callback path (completions alias
// arena records) — at zero allocations per batch. (Arena segment turnover is
// the one allocation the path owns; the batch stays far below a segment.)
func TestByteRingZeroAlloc(t *testing.T) {
	h := newBucketTable(1 << 12).NewHandle()
	h.OnByteComplete(func(ByteCompletion) {})
	const n = 256
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%04d", i))
		h.PutBytes(keys[i], []byte("value-0"))
	}
	val := []byte("value-1")
	run := func() {
		for i, k := range keys {
			switch i % 4 {
			case 0:
				h.SubmitBytes(table.Put, uint64(i), k, val)
			case 1:
				h.SubmitBytes(table.Delete, uint64(i), k, nil)
			default:
				h.SubmitBytes(table.Get, uint64(i), k, nil)
			}
			if i%32 == 31 {
				h.FlushBytes()
			}
		}
		h.FlushBytes()
	}
	run()
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("%v allocs per batch of %d byte requests, want 0", a, n)
	}
}
