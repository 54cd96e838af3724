package dramhit

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"dramhit/internal/hashfn"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// TestBatchHelpersZeroAlloc pins the batch helpers at zero allocations on a
// warm handle, whatever the batch length: requests and responses are staged
// through fixed stack arrays.
func TestBatchHelpersZeroAlloc(t *testing.T) {
	tbl := New(Config{Slots: 1 << 14})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(31, 5000) // not a multiple of the chunk
	for i := 0; i < len(keys); i += 7 {
		keys[i] = keys[0] // duplicates: same-key requests in flight together
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	h.PutBatch(keys, vals)
	h.GetBatch(keys, vals, found)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"PutBatch", func() { h.PutBatch(keys, vals) }},
		{"UpsertBatch", func() { h.UpsertBatch(keys, 1) }},
		{"GetBatch", func() { h.GetBatch(keys, vals, found) }},
	} {
		// Let the GC settle first: a cycle that starts inside the count
		// (after -cpu raised GOMAXPROCS, it starts mark workers for the new
		// Ps) allocates on the runtime's behalf, not the helper's.
		runtime.GC()
		if n := testing.AllocsPerRun(5, c.run); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", c.name, n)
		}
	}
	for i, ok := range found {
		if !ok {
			t.Fatalf("GetBatch missed key %d", i)
		}
	}
}

// ringWrapGen generates TestRingWrapInPlace's rounds against a reference map.
type ringWrapGen struct {
	rng             *rand.Rand
	ref             map[uint64]uint64
	present, absent []uint64 // key pools; a deleted key is in neither
	nextID          uint64
	inserts         int // slots claimed since the load (tombstones are not reclaimed)
}

// round returns one round's requests in submission order and, by request ID,
// the response every Get must get, and applies the round to g.ref. Each key
// a round touches follows one pattern — Gets only, Upserts only, a Put then
// Gets, Upserts then Gets, or one Delete — so the answer to every Get is
// fixed by its key's submission order, which one handle keeps (same-key
// requests probe the same lines in the same order); the patterns of a few
// keys at a time are interleaved so that same-key requests meet in the ring.
func (g *ringWrapGen) round() (reqs []table.Request, want map[uint64]table.Response) {
	rng := g.rng
	want = map[uint64]table.Response{}
	used := map[uint64]bool{}
	pick := func(pool *[]uint64, remove bool) (uint64, bool) {
		for try := 0; try < 8 && len(*pool) > 0; try++ {
			i := rng.Intn(len(*pool))
			k := (*pool)[i]
			if used[k] {
				continue
			}
			used[k] = true
			if remove {
				(*pool)[i] = (*pool)[len(*pool)-1]
				*pool = (*pool)[:len(*pool)-1]
			}
			return k, true
		}
		return 0, false
	}
	gets := func(seq []table.Request, k uint64, n int) []table.Request {
		for ; n > 0; n-- {
			g.nextID++
			v, ok := g.ref[k]
			want[g.nextID] = table.Response{ID: g.nextID, Value: v, Found: ok}
			seq = append(seq, table.Request{Op: table.Get, Key: k, ID: g.nextID})
		}
		return seq
	}
	upserts := func(seq []table.Request, k uint64, n int) []table.Request {
		for ; n > 0; n-- {
			d := uint64(rng.Intn(9) + 1)
			seq = append(seq, table.Request{Op: table.Upsert, Key: k, Value: d})
			g.ref[k] += d
		}
		return seq
	}
	for group := 0; group < 24; group++ {
		var seqs [][]table.Request
		for n := 0; n < 5; n++ {
			var seq []table.Request
			var k uint64
			var ok bool
			switch pat := rng.Intn(10); {
			case pat < 3: // Gets only, of an absent key one time in three
				if rng.Intn(3) == 0 {
					k, ok = pick(&g.absent, false)
				} else {
					k, ok = pick(&g.present, false)
				}
				if ok {
					seq = gets(seq, k, rng.Intn(6)+1)
				}
			case pat < 5: // Upserts only
				if k, ok = pick(&g.present, false); ok {
					seq = upserts(seq, k, rng.Intn(5)+1)
				}
			case pat < 7: // a Put (an insert one time in four) then Gets
				if rng.Intn(4) == 0 && g.inserts < 60 {
					if k, ok = pick(&g.absent, true); ok {
						g.present = append(g.present, k)
						g.inserts++
					}
				} else {
					k, ok = pick(&g.present, false)
				}
				if ok {
					v := rng.Uint64() >> 1
					seq = append(seq, table.Request{Op: table.Put, Key: k, Value: v})
					g.ref[k] = v
					seq = gets(seq, k, rng.Intn(5))
				}
			case pat < 9: // Upserts then Gets
				if k, ok = pick(&g.present, false); ok {
					seq = gets(upserts(seq, k, rng.Intn(3)+1), k, rng.Intn(4)+1)
				}
			default: // one Delete, of an absent key one time in three
				if rng.Intn(3) == 0 {
					k, ok = pick(&g.absent, false)
				} else {
					k, ok = pick(&g.present, true)
				}
				if ok {
					seq = append(seq, table.Request{Op: table.Delete, Key: k})
					delete(g.ref, k)
				}
			}
			if len(seq) > 0 {
				seqs = append(seqs, seq)
			}
		}
		// Random merge, each key's own order kept.
		for len(seqs) > 0 {
			i := rng.Intn(len(seqs))
			reqs = append(reqs, seqs[i][0])
			if seqs[i] = seqs[i][1:]; len(seqs[i]) == 0 {
				seqs[i] = seqs[len(seqs)-1]
				seqs = seqs[:len(seqs)-1]
			}
		}
	}
	return reqs, want
}

// TestRingWrapInPlace drives the ring through every in-place transition on a
// 90%-full table, where most probes cross lines and many leave their line
// pair: the reprobe move from the tail slot to the head slot, and a request
// built in the head slot after the back-pressure loop re-enqueued there.
// Responses are collected through a one-slot buffer, so Submit keeps
// returning blocked. Each Get is checked against a reference map, the final
// state against the same map, and the line count against the requests and
// crossings that make it up. The last case splits the table into two
// regions: the moved entry must keep probing the region it was routed to.
func TestRingWrapInPlace(t *testing.T) {
	const slots, loaded = 1024, 920
	for _, c := range []struct{ window, regions int }{{1, 1}, {16, 1}, {16, 2}} {
		window := c.window
		tbl := newRegionTable(Config{Slots: slots, PrefetchWindow: window}, c.regions)
		h := tbl.NewHandle()
		all := workload.UniqueKeys(41, loaded+200)
		present := append([]uint64{table.EmptyKey, table.TombstoneKey}, all[:loaded]...)
		absent := append([]uint64(nil), all[loaded:]...)
		ref := map[uint64]uint64{}
		vals := make([]uint64, len(present))
		for i, k := range present {
			vals[i] = k>>3 + 1
			ref[k] = vals[i]
		}
		h.PutBatch(present, vals)

		gen := ringWrapGen{rng: rand.New(rand.NewSource(int64(window))), ref: ref, present: present, absent: absent}
		var blocked, gets int
		for round := 0; round < 30; round++ {
			reqs, want := gen.round()
			var one [1]table.Response
			check := func(n int) {
				for _, r := range one[:n] {
					w, ok := want[r.ID]
					if !ok {
						t.Fatalf("window %d round %d: response for unknown or answered ID %d", window, round, r.ID)
					}
					if r != w {
						t.Fatalf("window %d round %d: Get %d = (%d, %v), want (%d, %v)",
							window, round, r.ID, r.Value, r.Found, w.Value, w.Found)
					}
					delete(want, r.ID)
					gets++
				}
			}
			for rem := reqs; len(rem) > 0; {
				nreq, nresp := h.Submit(rem, one[:])
				check(nresp)
				if rem = rem[nreq:]; len(rem) > 0 {
					blocked++
				}
			}
			for {
				nresp, done := h.Flush(one[:])
				check(nresp)
				if done {
					break
				}
			}
			if len(want) != 0 {
				t.Fatalf("window %d round %d: %d Gets never answered", window, round, len(want))
			}
		}

		if tbl.Len() != len(ref) {
			t.Errorf("window %d: Len = %d, reference holds %d", window, tbl.Len(), len(ref))
		}
		s := tbl.NewSync()
		for _, k := range append(all, table.EmptyKey, table.TombstoneKey) {
			v, ok := s.Get(k)
			if w, wok := ref[k]; ok != wok || v != w {
				t.Fatalf("window %d: final Get(%#x) = (%d, %v), want (%d, %v)", window, k, v, ok, w, wok)
			}
		}
		st := h.Stats()
		if blocked == 0 || st.Reprobes == 0 || st.Failed != 0 {
			t.Errorf("window %d: a path went unexercised: blocked %d stats %+v", window, blocked, st)
		}
		if st.Gets != uint64(gets) {
			t.Errorf("window %d: Stats.Gets = %d, %d responses collected", window, st.Gets, gets)
		}
		// A request counts its home line once, at submission; every further
		// line is a crossing.
		if st.Lines != st.Ops()+st.Reprobes {
			t.Errorf("window %d: Lines %d, want %d ops + %d reprobes", window, st.Lines, st.Ops(), st.Reprobes)
		}
	}
}

// TestTwoLineVisit pins the visit unit: a request's prefetch covers its home
// line and the next one, so a probe chain spanning two lines completes
// without a re-enqueue, one spanning three re-enqueues once, and one that
// wraps from the last line to line 0 (not the prefetched neighbour)
// re-enqueues at the wrap. Every crossing, walked in place or re-enqueued,
// counts one Reprobe and one Line.
func TestTwoLineVisit(t *testing.T) {
	const slots = 64
	homedAt := func(home uint64, n int) []uint64 {
		var keys []uint64
		for k := uint64(1); len(keys) < n; k++ {
			if _, idx := hashfn.FastrangeSplit(hashfn.City64(k), 1, slots); idx == home {
				keys = append(keys, k)
			}
		}
		return keys
	}
	for _, c := range []struct {
		name           string
		home           uint64
		fill           int // keys of that home loaded first: a cluster from home on
		lines, enqueue int // lines the absent key's probe visits; its enqueues
	}{
		{"one line", 4, 3, 1, 1},
		{"two lines", 4, 4, 2, 1},
		{"three lines", 4, 8, 3, 2},
		{"four lines", 4, 12, 4, 2},
		{"wrap", slots - 4, 4, 2, 2},
	} {
		keys := homedAt(c.home, c.fill+1)
		h := New(Config{Slots: slots}).NewHandle()
		h.PutBatch(keys[:c.fill], keys[:c.fill])
		before, head := h.Stats(), h.head
		resps := make([]table.Response, 1)
		h.Submit([]table.Request{{Op: table.Get, Key: keys[c.fill], ID: 7}}, resps)
		if n, done := h.Flush(resps); n != 1 || !done || resps[0].Found {
			t.Fatalf("%s: Get of an absent key = %d responses (%+v), done %v", c.name, n, resps[0], done)
		}
		st := h.Stats()
		if lines, reprobes := st.Lines-before.Lines, st.Reprobes-before.Reprobes; lines != uint64(c.lines) || reprobes != uint64(c.lines-1) {
			t.Errorf("%s: %d lines and %d reprobes, want %d and %d", c.name, lines, reprobes, c.lines, c.lines-1)
		}
		if got := h.head - head; got != c.enqueue {
			t.Errorf("%s: %d enqueues, want %d", c.name, got, c.enqueue)
		}
	}
}

// TestHandlesShareNoLine: two handles made one after the other — the shape of
// a two-goroutine bulk load — must not share a cache line in their Handle
// structs, ring backing arrays or fill counts, or every request of one
// invalidates a line the other writes. All three are sized to whole lines,
// which puts each in a line-multiple allocation size class. A handle's fill
// counts are the only words besides the probed slot's that its inserts and
// deletes write, so they must also share no line with a region's counters
// (which publishes write) or with a word a probe reads (the Table, a region's
// arr or bkt). The same holds for the regions' counters: no counter line may
// hold a probed word, or a line another region's counters live on.
func TestHandlesShareNoLine(t *testing.T) {
	if n := unsafe.Sizeof(Handle{}); n%table.CacheLineBytes != 0 {
		t.Fatalf("Handle is %d bytes, not a whole number of cache lines", n)
	}
	type span struct{ lo, hi uintptr } // first and last line touched
	lines := func(p unsafe.Pointer, n uintptr) span {
		return span{uintptr(p) / table.CacheLineBytes, (uintptr(p) + n - 1) / table.CacheLineBytes}
	}
	overlap := func(a, b span) bool { return a.lo <= b.hi && b.lo <= a.hi }
	for _, nreg := range []int{1, 3, 9} {
		tbl := newRegionTable(Config{Slots: 1 << 10}, nreg)
		read := []span{lines(unsafe.Pointer(tbl), unsafe.Sizeof(*tbl))}
		var counters []span
		for i := range tbl.regs {
			r := &tbl.regs[i]
			read = append(read, lines(unsafe.Pointer(&r.arr), 2*unsafe.Sizeof(r.arr)))
			counters = append(counters, lines(unsafe.Pointer(&r.used), 2*unsafe.Sizeof(r.used)))
		}
		for i, c := range counters {
			for _, r := range read {
				if overlap(c, r) {
					t.Errorf("%d regions: region %d's counters share line %d-%d with a probed word", nreg, i, c.lo, c.hi)
				}
			}
			for j, d := range counters[:i] {
				if overlap(c, d) {
					t.Errorf("%d regions: the counters of regions %d and %d share a line", nreg, j, i)
				}
			}
		}
		// Two handles' structs, rings and fill counts. A handle's fill counts
		// must share no line with the other handle's struct or fill counts,
		// with either ring, or with a region counter or probed word.
		type handleLines struct{ own, ring, fill span }
		var hl [2]handleLines
		for i := range hl {
			h := tbl.NewHandle()
			n := uintptr(cap(h.fill)) * unsafe.Sizeof(fillDelta{})
			if off := uintptr(unsafe.Pointer(&h.fill[0])) % table.CacheLineBytes; len(h.fill) != nreg || n%table.CacheLineBytes != 0 || off != 0 {
				t.Fatalf("%d regions: %d fill counts over %d bytes at line offset %d, want one per region on whole lines", nreg, len(h.fill), n, off)
			}
			hl[i] = handleLines{
				own:  lines(unsafe.Pointer(h), unsafe.Sizeof(*h)),
				ring: lines(unsafe.Pointer(&h.q[0]), uintptr(cap(h.q))*unsafe.Sizeof(pending{})),
				fill: lines(unsafe.Pointer(&h.fill[0]), n),
			}
		}
		for i, a := range hl {
			apart := append(append([]span{}, counters...), read...)
			for j, b := range hl {
				apart = append(apart, b.ring)
				if j != i {
					apart = append(apart, b.own, b.fill)
				}
			}
			for _, o := range apart {
				if overlap(a.fill, o) {
					t.Errorf("%d regions: handle %d's fill counts share line %d-%d with another handle, a ring, a region counter or a probed word", nreg, i, a.fill.lo, a.fill.hi)
				}
			}
		}
	}
	for _, window := range []int{1, 4, 16} {
		tbl := New(Config{Slots: 1 << 10, PrefetchWindow: window})
		var spans [2][2]span
		for i := range spans {
			h := tbl.NewHandle()
			ring := uintptr(cap(h.q)) * unsafe.Sizeof(pending{})
			if ring%table.CacheLineBytes != 0 {
				t.Fatalf("window %d: ring backing array is %d bytes, not a whole number of cache lines", window, ring)
			}
			spans[i] = [2]span{lines(unsafe.Pointer(h), unsafe.Sizeof(*h)), lines(unsafe.Pointer(&h.q[0]), ring)}
		}
		for _, a := range spans[0] {
			for _, b := range spans[1] {
				if overlap(a, b) {
					t.Errorf("window %d: lines %d-%d and %d-%d of two handles overlap", window, a.lo, a.hi, b.lo, b.hi)
				}
			}
		}
	}
}
