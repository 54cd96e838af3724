package slotarr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"dramhit/internal/arena"
)

// arenaBytes sums the linked segments' appended and retired bytes, each
// segment's dead clamped to its used (an open segment's used trails its
// writer).
func arenaBytes(ar *arena.Arena) (used, dead uint64) {
	for _, s := range ar.SegmentStats() {
		used += s.Used
		dead += min(s.Dead, s.Used)
	}
	return used, dead
}

// TestWriterPinnedAcrossRecord: a writer resolves the record its candidate
// lane points at, and in the window between loading the slot word and that
// read another handle overwrites the key, which makes the record's segment
// fully dead, and Advance runs. The writer's pin must keep the segment
// linked; unpinned, Record reads a directory entry Advance cleared.
func TestWriterPinnedAcrossRecord(t *testing.T) {
	ar := arena.New(arena.WithSegmentBytes(16))
	bt := NewBucketTable(BucketConfig{Buckets: 64, Arena: ar})
	a, b, c := bt.NewHandle(), bt.NewHandle(), bt.NewHandle()
	key := []byte("key")
	c.Put(key, bytes.Repeat([]byte{1}, 32))             // a segment of its own
	c.Put([]byte("other"), bytes.Repeat([]byte{2}, 32)) // seals it
	var freedInWindow uint64
	beforeRecord = func() {
		beforeRecord = nil
		b.Put(key, []byte("theirs"))
		ar.Advance()
		ar.Advance()
		freedInWindow = ar.Freed()
	}
	t.Cleanup(func() { beforeRecord = nil })
	if existed, ok := a.Put(key, []byte("mine")); !existed || !ok {
		t.Fatalf("Put: existed %v ok %v", existed, ok)
	}
	if beforeRecord != nil {
		t.Fatal("the hook never ran")
	}
	if freedInWindow != 0 {
		t.Fatalf("%d segments unlinked under a writer inside its write", freedInWindow)
	}
	if ar.Advance(); ar.Freed() == 0 {
		t.Fatal("the dead segment outlived the write")
	}
	if v, ok := a.Get(key); !ok || string(v) != "mine" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if err := bt.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionKeepsArenaFlat: one handle overwrites a fixed key set
// ten times over, in random order, so that few segments die whole by themselves.
// Compaction passes start once the dead bytes pass the live bytes and 64
// segments' worth, so the arena never holds more than twice its live bytes
// plus 64 segments (and the one segment written since the last check), every
// key reads its last value, and the index audits clean. The test waits for the
// pass a write started (WaitPass) before it measures, so the bound is the
// policy's, not a race between the writer and the pass's goroutine.
func TestCompactionKeepsArenaFlat(t *testing.T) {
	const seg, keys, rounds = 512, 2048, 10
	ar := arena.New(arena.WithSegmentBytes(seg))
	bt := NewBucketTable(BucketConfig{Buckets: 64, Arena: ar})
	h := bt.NewHandle()
	rng := rand.New(rand.NewPCG(1, 2))
	last := map[int][]byte{}
	for op := 0; op < keys*rounds; op++ {
		i := rng.IntN(keys)
		v := []byte(fmt.Sprintf("value-%04d-%05d-%s", i, op, bytes.Repeat([]byte{'x'}, i%40)))
		h.Put([]byte(fmt.Sprintf("key-%04d", i)), v)
		last[i] = v
		ar.WaitPass()
		if used, dead := arenaBytes(ar); used > 2*(used-dead)+65*seg {
			t.Fatalf("op %d: %d bytes used, %d dead", op, used, dead)
		}
	}
	for i, want := range last {
		if v, ok := h.Get([]byte(fmt.Sprintf("key-%04d", i))); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d reads %q, %v; want %q", i, v, ok, want)
		}
	}
	cs := ar.CompactStats()
	if cs.Passes == 0 || cs.Moved == 0 || cs.Unlinked == 0 || cs.MaxChunk <= 0 {
		t.Fatalf("compaction stats %+v: want passes that moved records and unlinked segments", cs)
	}
	if err := bt.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionHonoursPins: a reader that pinned the arena and read a value
// keeps every segment retired since linked however many passes run, and the
// bytes it read never change; once it unpins, the next pass unlinks them.
// A pass waits for the pin only a bounded time (unlinkWait), in its own
// goroutine.
func TestCompactionHonoursPins(t *testing.T) {
	const seg = 256
	ar := arena.New(arena.WithSegmentBytes(seg))
	bt := NewBucketTable(BucketConfig{Buckets: 16, Arena: ar})
	w, r := bt.NewHandle(), bt.NewHandle()
	churn := func(n int) {
		for i := 0; i < n; i++ {
			w.Put([]byte(fmt.Sprintf("k%02d", i%32)), []byte(fmt.Sprintf("v%06d", i)))
		}
	}
	churn(32)
	r.Pin()
	v, ok := r.Get([]byte("k00"))
	if !ok {
		t.Fatal("k00 missing")
	}
	want := append([]byte(nil), v...)
	freed := ar.Freed()
	churn(4000)
	ar.WaitPass()
	if ar.CompactStats().Passes == 0 {
		t.Fatal("no pass ran")
	}
	if ar.Freed() != freed || !bytes.Equal(v, want) {
		t.Fatalf("under the pin: %d segments unlinked, read %q now %q", ar.Freed()-freed, want, v)
	}
	r.Unpin()
	churn(4000)
	ar.WaitPass()
	if ar.Freed() == freed {
		t.Fatal("nothing unlinked after the pin was released")
	}
	if !bytes.Equal(v, want) {
		t.Fatalf("a value read under a pin changed from %q to %q", want, v)
	}
	if err := bt.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionRace runs Put, Upsert, Delete and Get handles against one
// table over an arena of 256-byte segments, so that passes and grows both
// happen every round. Each writer owns its keys, whose last value a map
// predicts; Upserts add to shared counters, whose totals are known; Gets of
// other writers' keys check the value belongs to the key. After each round,
// once the running pass has ended, the index audits clean and agrees with the
// maps.
func TestCompactionRace(t *testing.T) {
	const seg, writers, keysPer, rounds, ops, counters = 256, 4, 128, 10, 2000, 8
	ar := arena.New(arena.WithSegmentBytes(seg))
	bt := NewBucketTable(BucketConfig{Buckets: 4, Arena: ar})
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-key-%03d", w, i)) }
	val := func(w, i, v int) []byte {
		return append([]byte(fmt.Sprintf("w%d-key-%03d=%d:", w, i, v)), bytes.Repeat([]byte{'.'}, v%48)...)
	}
	ctr := func(c int) []byte { return []byte(fmt.Sprintf("counter-%d", c)) }
	incr := func(old []byte, present bool) ([]byte, bool) {
		var n uint64
		if present {
			n = binary.LittleEndian.Uint64(old)
		}
		return binary.LittleEndian.AppendUint64(nil, n+1), true
	}
	oracle := make([]map[int][]byte, writers)
	handles := make([]*BucketHandle, writers)
	for w := range oracle {
		oracle[w] = map[int][]byte{}
		handles[w] = bt.NewHandle()
	}
	var failed atomic.Bool
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := handles[w]
				for op := 0; op < ops && !failed.Load(); op++ {
					i := (op*7 + round) % keysPer
					switch op % 10 {
					case 0:
						h.Delete(key(w, i))
						delete(oracle[w], i)
					case 1, 2:
						h.Mutate(ctr(op%counters), incr)
					case 3, 4:
						o := (w + 1 + op%(writers-1)) % writers
						j := op % keysPer
						if v, ok := h.Get(key(o, j)); ok && !bytes.HasPrefix(v, []byte(fmt.Sprintf("w%d-key-%03d=", o, j))) {
							t.Errorf("key (%d,%d) read %q", o, j, v)
							failed.Store(true)
						}
					default:
						v := val(w, i, round*ops+op)
						h.Put(key(w, i), v)
						oracle[w][i] = v
					}
				}
			}(w)
		}
		wg.Wait()
		if failed.Load() {
			return
		}
		ar.WaitPass()
		if err := bt.Audit(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		h := handles[0]
		n := counters
		for w := 0; w < writers; w++ {
			n += len(oracle[w])
			for i := 0; i < keysPer; i++ {
				v, ok := h.Get(key(w, i))
				if want, present := oracle[w][i]; ok != present || !bytes.Equal(v, want) {
					t.Fatalf("round %d: key (%d,%d) reads %q, %v; want %q, %v", round, w, i, v, ok, want, present)
				}
			}
		}
		var total uint64
		for c := 0; c < counters; c++ {
			v, ok := h.Get(ctr(c))
			if !ok {
				t.Fatalf("round %d: counter %d missing", round, c)
			}
			total += binary.LittleEndian.Uint64(v)
		}
		if want := uint64((round + 1) * writers * ops / 5); total != want || bt.Len() != n {
			t.Fatalf("round %d: counters sum to %d, want %d; Len %d, want %d", round, total, want, bt.Len(), n)
		}
	}
	if cs := ar.CompactStats(); cs.Passes == 0 || cs.Moved == 0 || bt.Grows() == 0 {
		t.Fatalf("compaction %+v, %d grows: want both passes and grows", cs, bt.Grows())
	}
}

// TestAuditCatchesCorruption: the audit is an oracle with teeth — a slot word
// whose fingerprint does not match its key, a ref past its segment's bytes,
// and a ref into an unlinked segment each fail it.
func TestAuditCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(w uint64) uint64{
		"fingerprint":   func(w uint64) uint64 { return slotWord(uint8(slotFP(w))%255+1, slotRef(w)) },
		"offset":        func(w uint64) uint64 { return w + 1<<20 },
		"segment":       func(w uint64) uint64 { return w + 1<<40 },
		"record length": func(w uint64) uint64 { return w + 1 },
	} {
		bt := NewBucketTable(BucketConfig{Buckets: 4})
		h := bt.NewHandle()
		for i := 0; i < 8; i++ {
			h.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte(i)}, 200))
		}
		if err := bt.Audit(); err != nil {
			t.Fatalf("%s: clean table: %v", name, err)
		}
		st := bt.state.Load()
		for i := range st.words {
			if i%BucketWords != 0 && st.words[i] != 0 && st.words[i] != slotTombstone {
				st.words[i] = corrupt(st.words[i])
				break
			}
		}
		if err := bt.Audit(); err == nil {
			t.Errorf("%s: corrupted word passed the audit", name)
		}
	}
}
