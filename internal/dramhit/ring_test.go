package dramhit

import (
	"math/rand"
	"testing"

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
		keys[i] = keys[0] // duplicates, so the Gets grow combine chains
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	h.PutBatch(keys, vals)
	h.GetBatch(keys, vals, found) // warm the merged-Get arena
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"PutBatch", func() { h.PutBatch(keys, vals) }},
		{"UpsertBatch", func() { h.UpsertBatch(keys, 1) }},
		{"GetBatch", func() { h.GetBatch(keys, vals, found) }},
	} {
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
// fixed whatever is folded, piggybacked or forwarded inside the window; the
// patterns of a few keys at a time are interleaved so that same-key requests
// meet in the ring.
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
// 90%-full table, where most probes cross lines: the reprobe move from the
// tail slot to the head slot, a request built in the head slot after the
// back-pressure loop re-enqueued there, and a leader parked, resumed and
// shrunk where it sits. Responses are collected through a one-slot buffer,
// so every combine chain parks its leader and Submit keeps returning
// blocked. Each Get is checked against a reference map, the final state
// against the same map, and the SWAR pipeline's Stats against the scalar
// kernel's over the same requests. The last case splits the table into two
// regions: the moved entry must keep probing the region it was routed to.
func TestRingWrapInPlace(t *testing.T) {
	const slots, loaded = 1024, 920
	for _, c := range []struct{ window, regions int }{{1, 1}, {16, 1}, {16, 2}} {
		window := c.window
		var core [2]Stats
		for ki, kernel := range []table.ProbeKernel{table.KernelSWAR, table.KernelScalar} {
			tbl := newRegionTable(Config{Slots: slots, PrefetchWindow: window, ProbeKernel: kernel}, c.regions)
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
			var blocked, parked, gets int
			for round := 0; round < 30; round++ {
				reqs, want := gen.round()
				var one [1]table.Response
				check := func(n int) {
					for _, r := range one[:n] {
						w, ok := want[r.ID]
						if !ok {
							t.Fatalf("window %d %v round %d: response for unknown or answered ID %d", window, kernel, round, r.ID)
						}
						if r != w {
							t.Fatalf("window %d %v round %d: Get %d = (%d, %v), want (%d, %v)",
								window, kernel, round, r.ID, r.Value, r.Found, w.Value, w.Found)
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
						if h.q[h.tail&h.mask].state != stateProbing {
							parked++
						}
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
					t.Fatalf("window %d %v round %d: %d Gets never answered", window, kernel, round, len(want))
				}
			}

			if tbl.Len() != len(ref) {
				t.Errorf("window %d %v: Len = %d, reference holds %d", window, kernel, tbl.Len(), len(ref))
			}
			s := tbl.NewSync()
			for _, k := range append(all, table.EmptyKey, table.TombstoneKey) {
				v, ok := s.Get(k)
				if w, wok := ref[k]; ok != wok || v != w {
					t.Fatalf("window %d %v: final Get(%#x) = (%d, %v), want (%d, %v)", window, kernel, k, v, ok, w, wok)
				}
			}
			st := h.Stats()
			if blocked == 0 || parked == 0 || st.Reprobes == 0 || st.CombinedUpserts == 0 ||
				st.PiggybackedGets == 0 || st.ForwardedGets == 0 || st.Failed != 0 {
				t.Errorf("window %d %v: a path went unexercised: blocked %d parked %d stats %+v", window, kernel, blocked, parked, st)
			}
			if st.Gets != uint64(gets) {
				t.Errorf("window %d %v: Stats.Gets = %d, %d responses collected", window, kernel, st.Gets, gets)
			}
			core[ki] = st.Core()
		}
		if core[0] != core[1] {
			t.Errorf("window %d: SWAR and scalar pipelines disagree:\nswar   %+v\nscalar %+v", window, core[0], core[1])
		}
	}
}
